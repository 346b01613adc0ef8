/**
 * @file
 * Channel<T> FIFO/blocking behaviour and its close/shutdown semantics
 * (see DESIGN.md "Service daemon"): the daemon's drain path closes the
 * admission queue while producers (admit, retryLoop) may be blocked
 * mid-push and workers are popping, so the close contract has to be
 * exact — blocked producers wake and fail, items already accepted are
 * never lost, consumers drain the backlog before seeing nullopt, and
 * close() is idempotent. Runs under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/channel.hh"

namespace dtexl {
namespace {

TEST(Channel, FifoOrderAndCapacity)
{
    Channel<int> ch(2);
    EXPECT_EQ(ch.capacity(), 2u);
    EXPECT_TRUE(ch.tryPush(1));
    EXPECT_TRUE(ch.tryPush(2));
    EXPECT_FALSE(ch.tryPush(3)) << "full channel must reject";
    EXPECT_EQ(ch.size(), 2u);

    auto a = ch.tryPop();
    auto b = ch.tryPop();
    auto c = ch.tryPop();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, 1);
    EXPECT_EQ(*b, 2);
    EXPECT_FALSE(c.has_value()) << "empty channel must report empty";
}

TEST(Channel, CloseWakesAndDrains)
{
    Channel<int> ch(4);
    EXPECT_TRUE(ch.push(7));
    ch.close();
    EXPECT_FALSE(ch.push(8)) << "push after close must fail";
    auto a = ch.pop();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, 7);
    EXPECT_FALSE(ch.pop().has_value())
        << "closed and drained returns nullopt, not a block";
}

TEST(Channel, BlockingHandoffAcrossThreads)
{
    Channel<int> ch(1);
    std::vector<int> got;
    std::thread consumer([&] {
        while (auto v = ch.pop())
            got.push_back(*v);
    });
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(ch.push(i));
    ch.close();
    consumer.join();
    ASSERT_EQ(got.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(ChannelClose, WakesBlockedProducers)
{
    Channel<int> ch(1);
    ASSERT_TRUE(ch.push(0)); // fill to capacity

    std::atomic<int> rejected{0};
    std::vector<std::thread> producers;
    for (int i = 0; i < 4; ++i) {
        producers.emplace_back([&ch, &rejected, i] {
            if (!ch.push(100 + i))
                rejected.fetch_add(1, std::memory_order_relaxed);
        });
    }
    // Let the producers park on the full channel, then close it: all
    // four must wake and report failure rather than block forever.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close();
    for (std::thread &t : producers)
        t.join();
    EXPECT_EQ(rejected.load(), 4)
        << "every producer blocked across close() must fail its push";

    // The pre-close item is still deliverable.
    auto v = ch.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 0);
    EXPECT_FALSE(ch.pop().has_value());
}

TEST(ChannelClose, InFlightItemsDrainBeforeNullopt)
{
    Channel<int> ch(8);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(ch.push(i));
    ch.close();

    // Consumers started after the close still receive every accepted
    // item, in order, and only then the closed sentinel.
    for (int i = 0; i < 5; ++i) {
        auto v = ch.pop();
        ASSERT_TRUE(v.has_value()) << "item " << i << " lost at close";
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(ch.pop().has_value());
    EXPECT_FALSE(ch.pop().has_value())
        << "a drained closed channel stays drained";
}

TEST(ChannelClose, DoubleCloseIsIdempotent)
{
    Channel<int> ch(2);
    ASSERT_TRUE(ch.push(1));
    ch.close();
    ch.close(); // second close must be a harmless no-op
    EXPECT_FALSE(ch.push(2));
    auto v = ch.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1);
    EXPECT_FALSE(ch.pop().has_value());
    ch.close(); // ...even after the drain
}

TEST(ChannelClose, TryOpsAfterClose)
{
    Channel<int> ch(4);
    ASSERT_TRUE(ch.tryPush(9));
    ch.close();
    EXPECT_FALSE(ch.tryPush(10)) << "tryPush after close must fail";
    auto v = ch.tryPop();
    ASSERT_TRUE(v.has_value()) << "tryPop still drains the backlog";
    EXPECT_EQ(*v, 9);
    EXPECT_FALSE(ch.tryPop().has_value());
}

TEST(ChannelClose, WakesBlockedConsumers)
{
    Channel<int> ch(4);
    std::atomic<int> woke{0};
    std::vector<std::thread> consumers;
    for (int i = 0; i < 3; ++i) {
        consumers.emplace_back([&ch, &woke] {
            if (!ch.pop().has_value())
                woke.fetch_add(1, std::memory_order_relaxed);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close();
    for (std::thread &t : consumers)
        t.join();
    EXPECT_EQ(woke.load(), 3)
        << "close() must wake every parked consumer with nullopt";
}

TEST(ChannelClose, ConcurrentProducersConsumersAndClose)
{
    // Stress the close race the daemon actually runs: producers and
    // consumers in full flight when close() lands. Invariant: every
    // item a push() accepted is popped exactly once (no loss, no
    // duplication), regardless of where the close cut the stream.
    Channel<int> ch(4);
    std::atomic<int> accepted{0};
    std::atomic<int> received{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
        producers.emplace_back([&ch, &accepted, p] {
            for (int i = 0; i < 1000; ++i) {
                if (!ch.push(p * 1000 + i))
                    return; // closed mid-stream: expected
                accepted.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c) {
        consumers.emplace_back([&ch, &received] {
            while (ch.pop().has_value())
                received.fetch_add(1, std::memory_order_relaxed);
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ch.close();
    for (std::thread &t : producers)
        t.join();
    for (std::thread &t : consumers)
        t.join();
    EXPECT_EQ(received.load(), accepted.load())
        << "accepted items must be delivered exactly once across close";
    EXPECT_EQ(ch.size(), 0u);
}

} // namespace
} // namespace dtexl
