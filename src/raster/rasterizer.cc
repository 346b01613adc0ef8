#include "raster/rasterizer.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace dtexl {

namespace {

/**
 * Edge function: twice the signed area of (a, b, p). Positive when p is
 * on the interior side for a positively-wound triangle.
 */
float
edge(const Vec2f &a, const Vec2f &b, const Vec2f &p)
{
    return (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
}

/**
 * Top-left fill rule (y grows downwards): pixels exactly on a top or
 * left edge belong to the triangle, so triangles sharing an edge shade
 * every pixel exactly once.
 */
bool
topLeft(const Vec2f &a, const Vec2f &b)
{
    return (a.y == b.y && b.x < a.x) || (b.y < a.y);
}

/** Positively-wound copy of the primitive's screen vertices. */
struct Tri
{
    Vec2f p[3];
    float z[3];
    Vec2f uv[3];
    float area2;

    explicit Tri(const Primitive &prim)
    {
        int i1 = 1, i2 = 2;
        if (prim.signedArea2() < 0.0f)
            std::swap(i1, i2);
        const int order[3] = {0, i1, i2};
        for (int k = 0; k < 3; ++k) {
            const TransformedVertex &v = prim.v[order[k]];
            p[k] = v.screen;
            z[k] = v.depth;
            uv[k] = v.uv;
        }
        area2 = edge(p[0], p[1], p[2]);
    }

    bool
    covers(const Vec2f &c) const
    {
        const float e0 = edge(p[0], p[1], c);
        const float e1 = edge(p[1], p[2], c);
        const float e2 = edge(p[2], p[0], c);
        const bool i0 = e0 > 0.0f || (e0 == 0.0f && topLeft(p[0], p[1]));
        const bool i1 = e1 > 0.0f || (e1 == 0.0f && topLeft(p[1], p[2]));
        const bool i2 = e2 > 0.0f || (e2 == 0.0f && topLeft(p[2], p[0]));
        return i0 && i1 && i2;
    }
};

/**
 * The triangle set up once for the quad loop: per edge its origin
 * vertex a, the b - a deltas and the top-left flag, plus one 1/area2.
 * eval() computes exactly Tri::covers()'s edge expression tree,
 * (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x), and
 * interpolates with the weights e1 * inv, e2 * inv and 1 - w0 - w1.
 * Every hoisted value is a pure function of the triangle, so hoisting
 * it changes no output bit (tests/test_raster.cc QuadDigestIsPinned).
 */
struct TriSetup
{
    float ax[3], ay[3];      ///< edge origin (vertex a) per edge
    float dx[3], dy[3];      ///< b - a per edge
    bool tl[3];              ///< top-left rule per edge
    float inv;               ///< 1 / area2
    float z[3];
    Vec2f uv[3];

    explicit TriSetup(const Tri &t)
    {
        for (int e = 0; e < 3; ++e) {
            const Vec2f &a = t.p[e];
            const Vec2f &b = t.p[(e + 1) % 3];
            ax[e] = a.x;
            ay[e] = a.y;
            dx[e] = b.x - a.x;
            dy[e] = b.y - a.y;
            tl[e] = topLeft(a, b);
            z[e] = t.z[e];
            uv[e] = t.uv[e];
        }
        inv = 1.0f / t.area2;
    }

    /**
     * Coverage and interpolated attributes of the sample at (cx, cy),
     * from one evaluation of each edge function.
     */
    Fragment
    eval(float cx, float cy, bool &covered) const
    {
        float e[3];
        covered = true;
        for (int k = 0; k < 3; ++k) {
            e[k] = dx[k] * (cy - ay[k]) - dy[k] * (cx - ax[k]);
            covered = covered &&
                      (e[k] > 0.0f || (e[k] == 0.0f && tl[k]));
        }
        const float w0 = e[1] * inv;
        const float w1 = e[2] * inv;
        const float w2 = 1.0f - w0 - w1;
        Fragment f;
        f.depth = w0 * z[0] + w1 * z[1] + w2 * z[2];
        f.uv.x = w0 * uv[0].x + w1 * uv[1].x + w2 * uv[2].x;
        f.uv.y = w0 * uv[0].y + w1 * uv[1].y + w2 * uv[2].y;
        return f;
    }
};

} // namespace

bool
Rasterizer::pixelCovered(const Primitive &prim, std::uint32_t px,
                         std::uint32_t py)
{
    const Tri tri(prim);
    if (tri.area2 == 0.0f)
        return false;
    return tri.covers({static_cast<float>(px) + 0.5f,
                       static_cast<float>(py) + 0.5f});
}

namespace {

/**
 * Shared traversal behind the AoS and SoA rasterize() overloads; the
 * emit sink receives (quad coords, coverage, fragments) for each
 * non-empty quad in raster order.
 */
template <typename Emit>
std::size_t
rasterizeTo(const GpuConfig &cfg, const Primitive &prim,
            Coord2 tile_coord, Emit &&emit)
{
    const Tri tri(prim);
    if (tri.area2 == 0.0f)
        return 0;

    const std::int32_t ts = static_cast<std::int32_t>(cfg.tileSize);
    const std::int32_t tile_px = tile_coord.x * ts;
    const std::int32_t tile_py = tile_coord.y * ts;

    // Quad-aligned intersection of the tile and the primitive bbox,
    // clamped to the screen.
    auto clamp_lo = [](float v, std::int32_t lo) {
        return std::max(lo, static_cast<std::int32_t>(std::floor(v)));
    };
    auto clamp_hi = [](float v, std::int32_t hi) {
        return std::min(hi, static_cast<std::int32_t>(std::ceil(v)));
    };
    std::int32_t x0 = clamp_lo(prim.minX(), tile_px);
    std::int32_t y0 = clamp_lo(prim.minY(), tile_py);
    std::int32_t x1 = clamp_hi(prim.maxX(), tile_px + ts);
    std::int32_t y1 = clamp_hi(prim.maxY(), tile_py + ts);
    x1 = std::min(x1, static_cast<std::int32_t>(cfg.screenWidth));
    y1 = std::min(y1, static_cast<std::int32_t>(cfg.screenHeight));
    if (x0 >= x1 || y0 >= y1)
        return 0;
    x0 &= ~1;  // align down to quad boundary
    y0 &= ~1;

    const TriSetup setup(tri);
    const auto width = static_cast<std::int32_t>(cfg.screenWidth);
    const auto height = static_cast<std::int32_t>(cfg.screenHeight);
    std::size_t emitted = 0;
    for (std::int32_t qy = y0; qy < y1; qy += 2) {
        for (std::int32_t qx = x0; qx < x1; qx += 2) {
            std::array<Fragment, 4> frags;
            std::uint8_t coverage = 0;
            for (unsigned k = 0; k < 4; ++k) {
                const std::int32_t px = qx + static_cast<std::int32_t>(
                                                 k % 2);
                const std::int32_t py = qy + static_cast<std::int32_t>(
                                                 k / 2);
                // Attributes are interpolated for all four fragments
                // (helper pixels); coverage only for true hits inside
                // the screen.
                bool covered = false;
                frags[k] = setup.eval(static_cast<float>(px) + 0.5f,
                                      static_cast<float>(py) + 0.5f,
                                      covered);
                if (covered && px < width && py < height)
                    coverage |= static_cast<std::uint8_t>(1u << k);
            }
            if (coverage != 0) {
                emit(Coord2{(qx - tile_px) / 2, (qy - tile_py) / 2},
                     coverage, frags);
                ++emitted;
            }
        }
    }
    return emitted;
}

} // namespace

std::size_t
Rasterizer::rasterize(const Primitive &prim, Coord2 tile_coord,
                      std::vector<Quad> &out) const
{
    const std::size_t emitted = rasterizeTo(
        cfg, prim, tile_coord,
        [&](Coord2 qc, std::uint8_t coverage,
            const std::array<Fragment, 4> &frags) {
            Quad quad;
            quad.prim = &prim;
            quad.quadInTile = qc;
            quad.coverage = coverage;
            quad.frags = frags;
            out.push_back(quad);
        });
    quadCount += emitted;
    return emitted;
}

std::size_t
Rasterizer::rasterize(const Primitive &prim, Coord2 tile_coord,
                      QuadStream &out) const
{
    const std::size_t emitted = rasterizeTo(
        cfg, prim, tile_coord,
        [&](Coord2 qc, std::uint8_t coverage,
            const std::array<Fragment, 4> &frags) {
            out.push(&prim, qc, coverage, frags);
        });
    quadCount += emitted;
    return emitted;
}

} // namespace dtexl
