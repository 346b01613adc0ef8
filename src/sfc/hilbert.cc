#include "sfc/hilbert.hh"

#include "common/log.hh"

namespace dtexl {

namespace {

/** One quadrant rotation/reflection step of the classic iterative form. */
void
rot(std::uint32_t n, std::uint32_t &x, std::uint32_t &y,
    std::uint32_t rx, std::uint32_t ry)
{
    if (ry == 0) {
        if (rx == 1) {
            x = n - 1 - x;
            y = n - 1 - y;
        }
        std::uint32_t t = x;
        x = y;
        y = t;
    }
}

bool
isPow2(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
hilbertD2XY(std::uint32_t side, std::uint64_t d,
            std::uint32_t &x, std::uint32_t &y)
{
    dtexl_assert(isPow2(side), "hilbert side must be a power of two");
    dtexl_assert(d < std::uint64_t{side} * side, "hilbert d out of range");
    std::uint64_t t = d;
    x = y = 0;
    for (std::uint32_t s = 1; s < side; s *= 2) {
        std::uint32_t rx = 1 & static_cast<std::uint32_t>(t / 2);
        std::uint32_t ry = 1 & static_cast<std::uint32_t>(t ^ rx);
        rot(s, x, y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
    }
}

std::uint64_t
hilbertXY2D(std::uint32_t side, std::uint32_t x, std::uint32_t y)
{
    dtexl_assert(isPow2(side), "hilbert side must be a power of two");
    dtexl_assert(x < side && y < side, "hilbert coordinate out of range");
    std::uint64_t d = 0;
    for (std::uint32_t s = side / 2; s > 0; s /= 2) {
        std::uint32_t rx = (x & s) > 0 ? 1 : 0;
        std::uint32_t ry = (y & s) > 0 ? 1 : 0;
        d += std::uint64_t{s} * s * ((3 * rx) ^ ry);
        rot(s, x, y, rx, ry);
    }
    return d;
}

} // namespace dtexl
