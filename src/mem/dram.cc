#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"

namespace dtexl {

Dram::Dram(const DramConfig &cfg)
    : cfg(cfg), banks(cfg.numBanks),
      channel(kChannelWindow,
              kChannelWindow *
                  std::max<Cycle>(1, 64 / cfg.bytesPerCycle)),
      stats_("dram")
{
    dtexl_assert(cfg.numBanks > 0 && cfg.rowBytes > 0);
    hot.read = &stats_.handle("read");
    hot.write = &stats_.handle("write");
    hot.rowHit = &stats_.handle("row_hit");
    hot.rowMiss = &stats_.handle("row_miss");
    hot.channelStall = &stats_.handle("channel_stall");
}

Cycle
Dram::access(Addr addr, AccessType type, Cycle now)
{
    ++*(type == AccessType::Read ? hot.read : hot.write);

    // XOR-folded bank hashing (standard in memory controllers) so
    // strided or Morton-patterned address streams spread over banks.
    const std::uint64_t row_linear = addr / cfg.rowBytes;
    const std::uint64_t fold = row_linear ^ (row_linear / cfg.numBanks) ^
                               (row_linear /
                                (std::uint64_t{cfg.numBanks} *
                                 cfg.numBanks));
    const std::size_t bank_idx = fold % cfg.numBanks;
    const std::uint64_t row_id = row_linear / cfg.numBanks;
    Bank &bank = banks[bank_idx];

    // Row state is tracked in simulation order: with out-of-order
    // access times this is an approximation of the open-row history.
    const bool row_hit = bank.rowOpen && bank.openRow == row_id;
    ++*(row_hit ? hot.rowHit : hot.rowMiss);

    // Open-row accesses occupy the bank for just the burst and
    // pipeline behind each other; a row miss also holds the bank for
    // the precharge+activate window.
    const Cycle burst = std::max<Cycle>(1, 64 / cfg.bytesPerCycle);
    const Cycle occupancy =
        burst + (row_hit ? 0 : cfg.rowMissLatency - cfg.rowHitLatency);
    Cycle start = bank.busy.reserve(now, occupancy);
    if (telemetry && start > now)
        telemetry->span(now, start, StallReason::BankConflict);

    bool stalled = false;
    const Cycle bank_start = start;
    start = channel.reserve(start, stalled);
    if (stalled)
        ++*hot.channelStall;
    if (telemetry) {
        if (start > bank_start)
            telemetry->span(bank_start, start, StallReason::ChannelBusy);
        telemetry->busy(start, start + burst);
    }

    const Cycle latency =
        row_hit ? cfg.rowHitLatency : cfg.rowMissLatency;
    const Cycle done = start + latency;
    bank.rowOpen = true;
    bank.openRow = row_id;
    return done;
}

void
Dram::reset()
{
    for (Bank &b : banks)
        b = Bank{};
    channel.clear();
}

} // namespace dtexl
