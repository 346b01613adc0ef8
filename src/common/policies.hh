/**
 * @file
 * Cross-cutting scheduling-policy vocabulary: the quad groupings of
 * Figure 6, the tile orders of Figure 7, and the subtile assignments of
 * Figure 8. Defined here (not in sched/) because the GPU configuration,
 * the scheduler, the benches and the tests all name them.
 */

#ifndef DTEXL_COMMON_POLICIES_HH
#define DTEXL_COMMON_POLICIES_HH

#include <cstdint>
#include <string>

namespace dtexl {

/**
 * Quad grouping: how the quads of one tile are partitioned into four
 * subtiles (Figure 6). FG-* are fine-grained interleavings aimed at load
 * balance; CG-* are coarse contiguous regions aimed at texture locality.
 */
enum class QuadGrouping
{
    FGChecker,   ///< (a) 2x2 checkerboard: no edge-adjacent quad shares a SC
    FGXShift1,   ///< (b) row-cyclic, shifted by 1 each row
    FGXShift2,   ///< (c) row-cyclic, shifted by 2 each row (paper baseline)
    FGYShift2,   ///< (d) column-cyclic, shifted by 2 each column
    FGVDomino,   ///< (e) 1x2 dominoes: at most 2 vertical neighbours share
    FGHDomino,   ///< (f) 2x1 dominoes: at most 2 horizontal neighbours share
    CGXRect,     ///< (g) four full-height bands split along x
    CGYRect,     ///< (h) four full-width bands split along y
    CGTriangle,  ///< (i) four triangles meeting at the tile centre
    CGSquare,    ///< (j) 2x2 quadrants (paper's locality representative)
};

/** True for the coarse-grained (locality-oriented) groupings. */
bool isCoarseGrained(QuadGrouping g);

/** Stable short name used in reports ("FG-xshift2", "CG-square", ...). */
std::string toString(QuadGrouping g);

/** Inverse of toString; fatal() on an unknown name. */
QuadGrouping quadGroupingFromString(const std::string &name);

/** All ten groupings, in Figure 6 order. */
inline constexpr QuadGrouping kAllQuadGroupings[] = {
    QuadGrouping::FGChecker,  QuadGrouping::FGXShift1,
    QuadGrouping::FGXShift2,  QuadGrouping::FGYShift2,
    QuadGrouping::FGVDomino,  QuadGrouping::FGHDomino,
    QuadGrouping::CGXRect,    QuadGrouping::CGYRect,
    QuadGrouping::CGTriangle, QuadGrouping::CGSquare,
};

/**
 * Tile traversal order for the Tile Fetcher (Figure 7). RectHilbert is
 * the paper's adaptation: Hilbert over 8x8-tile sub-frames, sub-frames
 * visited boustrophedonically.
 */
enum class TileOrder
{
    Scanline,     ///< row by row, left to right
    SOrder,       ///< boustrophedon rows (serpentine)
    ZOrder,       ///< Morton order (paper baseline traversal)
    RectHilbert,  ///< Hilbert on 8x8 sub-frames, S across sub-frames
};

std::string toString(TileOrder o);

/** Inverse of toString; fatal() on an unknown name. */
TileOrder tileOrderFromString(const std::string &name);

inline constexpr TileOrder kAllTileOrders[] = {
    TileOrder::Scanline, TileOrder::SOrder, TileOrder::ZOrder,
    TileOrder::RectHilbert,
};

/**
 * Subtile-to-SC assignment across consecutive tiles (Figure 8).
 * Constant keeps quadrant k on SC k for every tile; the flip schemes
 * remap so that subtiles sharing an edge with the previous tile stay on
 * the same SC, with increasing fairness across SCs.
 */
enum class SubtileAssignment
{
    Constant,  ///< same quadrant -> same SC in every tile
    Flip1,     ///< mirror across the edge shared with the previous tile
    Flip2,     ///< Flip1 + swap the non-sharing pair on even->odd steps
    Flip3,     ///< Flip2 + full rotation of all four SCs every 16 tiles
};

std::string toString(SubtileAssignment a);

/**
 * Warp selection policy of the shader cores (the paper names warp
 * scheduling as one source of out-of-order quad completion).
 */
enum class WarpSched
{
    EarliestReady,  ///< ready warp with the earliest ready time
    OldestFirst,    ///< oldest ready warp (admission order)
    Greedy,         ///< keep issuing the same warp until it stalls
};

std::string toString(WarpSched w);

/**
 * Storage-free stand-in for the retired host SIMD knob: nothing sets,
 * parses or hashes it. The benchmark driver still passes
 * GpuConfig::simdMode to makeTileOrder(), so both go with the inert
 * geomThreads/rasterThreads members when the benchmark drops them
 * (ROADMAP item 1).
 */
struct InertSimdMode
{};

/** Inverse of toString; fatal() on an unknown name. */
SubtileAssignment subtileAssignmentFromString(const std::string &name);

inline constexpr SubtileAssignment kAllSubtileAssignments[] = {
    SubtileAssignment::Constant, SubtileAssignment::Flip1,
    SubtileAssignment::Flip2, SubtileAssignment::Flip3,
};

} // namespace dtexl

#endif // DTEXL_COMMON_POLICIES_HH
