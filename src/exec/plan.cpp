#include "exec/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>

namespace raq::exec {

namespace {

/// Best-fit free-list allocator over a growable flat arena with
/// level-granular lifetimes. Regions are measured in floats; freeing
/// coalesces with adjacent free regions so long-lived plans do not
/// fragment.
///
/// Every free region carries a *level floor*: the lowest dependency level
/// allowed to reuse it, set when freeing to one past the highest level
/// that ever touched the dead tensor. An allocation at level L only takes
/// regions whose floor is ≤ L, so two tensors sharing bytes are always
/// separated by at least one full level. That makes the one static layout
/// valid under both execution orders the engine supports: serial op-index
/// order (allocation is simulated in that order, so reuse is trivially
/// safe) and level-parallel order (all accessors of the old tensor run in
/// strictly earlier levels than every accessor of the new one, so
/// concurrent ops of one level can never alias). Coalescing keeps the
/// stricter (max) floor of the merged regions — conservative, never
/// unsafe.
class ArenaAllocator {
public:
    std::size_t allocate(std::size_t size, int level) {
        // Best fit: smallest free region with a compatible floor.
        auto best = free_.end();
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second.size < size || it->second.floor > level) continue;
            if (best == free_.end() || it->second.size < best->second.size) best = it;
        }
        if (best != free_.end()) {
            const std::size_t offset = best->first;
            const std::size_t remaining = best->second.size - size;
            const int floor = best->second.floor;
            free_.erase(best);
            if (remaining > 0) free_[offset + size] = Region{remaining, floor};
            return offset;
        }
        const std::size_t offset = high_water_;
        high_water_ += size;
        return offset;
    }

    void release(std::size_t offset, std::size_t size, int floor) {
        auto [it, inserted] = free_.emplace(offset, Region{size, floor});
        if (!inserted) throw std::logic_error("ArenaAllocator: double free");
        // Coalesce with the next free region.
        auto next = std::next(it);
        if (next != free_.end() && it->first + it->second.size == next->first) {
            it->second.size += next->second.size;
            it->second.floor = std::max(it->second.floor, next->second.floor);
            free_.erase(next);
        }
        // Coalesce with the previous free region.
        if (it != free_.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second.size == it->first) {
                prev->second.size += it->second.size;
                prev->second.floor = std::max(prev->second.floor, it->second.floor);
                free_.erase(it);
            }
        }
    }

    [[nodiscard]] std::size_t high_water() const { return high_water_; }

private:
    struct Region {
        std::size_t size = 0;
        int floor = 0;  ///< lowest level allowed to reuse this region
    };
    std::map<std::size_t, Region> free_;  ///< offset -> region, offset-ordered
    std::size_t high_water_ = 0;
};

/// Column-tile length of the quantized integer GEMM: keep one
/// [kdim, tile] u8 column block resident in L2 while every output channel
/// of the range streams over it. Hoisted here so QuantBackend does zero
/// per-call sizing work.
constexpr std::size_t kGemmTileBytes = 256 * 1024;

std::size_t gemm_tile_cols(std::size_t kdim, std::size_t cols_cap) {
    // Round down to a multiple of 16 — the widest SIMD column group — so
    // interior tiles never leave a scalar column tail; when `cols` itself
    // is 16-aligned (hw is for all real layer sizes) no tail runs at all.
    std::size_t tile = kGemmTileBytes / std::max<std::size_t>(1, kdim);
    tile -= tile % 16;
    return std::min(cols_cap, std::max<std::size_t>(512, tile));
}

}  // namespace

ExecPlan::ExecPlan(const ir::Graph& graph, PlanOptions options)
    : ExecPlan(std::make_shared<const ir::Graph>(graph), options) {}

ExecPlan::ExecPlan(std::shared_ptr<const ir::Graph> graph, PlanOptions options)
    : graph_(std::move(graph)), options_(options) {
    static std::atomic<std::uint64_t> next_serial{1};
    serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
    if (!graph_) throw std::invalid_argument("ExecPlan: null graph");
    if (options_.batch_capacity < 1)
        throw std::invalid_argument("ExecPlan: batch_capacity must be >= 1");
    if (graph_->output_id() < 0) throw std::invalid_argument("ExecPlan: graph has no output");

    const auto& ops = graph_->ops();
    const std::size_t num_tensors = static_cast<std::size_t>(graph_->num_tensors());
    const auto shapes = ir::infer_shapes(*graph_, options_.batch_capacity);

    // ---- schedule + dependency levels. Ops are appended in topological
    // order by construction (an op may only consume existing tensors), so
    // the schedule is the op order; levels expose the independence
    // structure (two ops on one level share no data path).
    const std::vector<int> levels = ir::op_levels(*graph_);
    schedule_.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        schedule_.push_back(OpStep{static_cast<int>(i), levels[i]});

    // Level-major view of the same schedule (op order preserved within a
    // level) for the engine's level-parallel mode.
    int max_level = 0;
    for (const int level : levels) max_level = std::max(max_level, level);
    level_bounds_.assign(static_cast<std::size_t>(max_level) + 2, 0);
    for (const int level : levels) ++level_bounds_[static_cast<std::size_t>(level) + 1];
    for (std::size_t l = 1; l < level_bounds_.size(); ++l)
        level_bounds_[l] += level_bounds_[l - 1];
    level_order_.resize(ops.size());
    {
        std::vector<std::size_t> cursor(level_bounds_.begin(), level_bounds_.end() - 1);
        for (std::size_t i = 0; i < ops.size(); ++i)
            level_order_[cursor[static_cast<std::size_t>(levels[i])]++] = static_cast<int>(i);
    }
    for (std::size_t l = 0; l + 1 < level_bounds_.size(); ++l)
        if (level_bounds_[l + 1] - level_bounds_[l] > 1) has_parallel_levels_ = true;

    // ---- tensor lifetimes: step producing each tensor and the step of
    // its last consumer. The graph output (and the external input) are
    // pinned for the whole run.
    constexpr int kLive = std::numeric_limits<int>::max();
    std::vector<int> last_use = ir::tensor_last_use(*graph_);
    last_use[static_cast<std::size_t>(graph_->output_id())] = kLive;
    last_use[static_cast<std::size_t>(graph_->input_id())] = kLive;  // external anyway

    // Highest dependency level that ever touches each tensor (producer or
    // any consumer) — a freed region's level floor is one past this, which
    // is what makes the layout valid for level-parallel execution too.
    std::vector<int> max_access_level(num_tensors, 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        max_access_level[static_cast<std::size_t>(ops[i].output)] = levels[i];
        for (const int in : ops[i].inputs)
            max_access_level[static_cast<std::size_t>(in)] =
                std::max(max_access_level[static_cast<std::size_t>(in)], levels[i]);
    }

    // ---- arena assignment: allocate each op's output right before the op
    // runs (its inputs are still live, so an output region can never alias
    // an input region), release inputs right after their last consumer.
    // Regions are released with a level floor, so reuse also never pairs
    // tensors of the same level — see ArenaAllocator.
    offsets_.assign(num_tensors, kExternal);
    ArenaAllocator arena;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const int out = ops[i].output;
        const std::size_t out_size = shapes[static_cast<std::size_t>(out)].size();
        total_tensor_floats_ += out_size;
        offsets_[static_cast<std::size_t>(out)] = arena.allocate(out_size, levels[i]);
        if (!options_.reuse_buffers) continue;
        // Tensor produced but never consumed (and not the output): its
        // region is reusable immediately after this op.
        if (last_use[static_cast<std::size_t>(out)] < static_cast<int>(i))
            arena.release(offsets_[static_cast<std::size_t>(out)], out_size,
                          levels[i] + 1);
        std::vector<int> dead(ops[i].inputs);
        std::sort(dead.begin(), dead.end());
        dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
        for (const int in : dead) {
            if (last_use[static_cast<std::size_t>(in)] != static_cast<int>(i)) continue;
            if (in == graph_->input_id()) continue;  // external, not in the arena
            arena.release(offsets_[static_cast<std::size_t>(in)],
                          shapes[static_cast<std::size_t>(in)].size(),
                          max_access_level[static_cast<std::size_t>(in)] + 1);
        }
    }
    arena_floats_ = arena.high_water();

    // ---- conv geometry + worst-case scratch extents.
    conv_geom_.assign(ops.size(), ConvGeom{});
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ir::Op& op = ops[i];
        if (op.kind != ir::OpKind::Conv2d) continue;
        const tensor::Shape& in = shapes[static_cast<std::size_t>(op.inputs.at(0))];
        const tensor::Shape& out = shapes[static_cast<std::size_t>(op.output)];
        ConvGeom g;
        g.oh = out.h;
        g.ow = out.w;
        g.kdim = static_cast<std::size_t>(op.conv.in_c) * static_cast<std::size_t>(op.conv.kh) *
                 static_cast<std::size_t>(op.conv.kw);
        g.hw = static_cast<std::size_t>(out.h) * static_cast<std::size_t>(out.w);
        g.cols_cap = static_cast<std::size_t>(options_.batch_capacity) * g.hw;
        g.in_floats_cap = in.size();
        g.plane_elems = tensor::im2col_plane_elems(in, op.conv.pad);
        if (op.conv.pad > 0)
            g.codes_cap =
                static_cast<std::size_t>(in.n) * static_cast<std::size_t>(in.c) * g.plane_elems;
        g.tile_cols = gemm_tile_cols(g.kdim, g.cols_cap);
        // Worst-case |acc| for unsigned 8-bit codes: kdim * 255 * 255.
        g.acc32_safe = g.kdim <= static_cast<std::size_t>(
                                     std::numeric_limits<std::int32_t>::max()) /
                                     (255u * 255u);
        conv_geom_[i] = g;

        max_tile_cols_ = std::max(max_tile_cols_, g.tile_cols);
        max_columns_ = std::max(max_columns_, g.kdim * g.cols_cap);
        max_product_floats_ =
            std::max(max_product_floats_,
                     static_cast<std::size_t>(op.conv.out_c) * g.cols_cap);
        max_conv_in_floats_ = std::max(max_conv_in_floats_, g.in_floats_cap);
        max_cols_ = std::max(max_cols_, g.cols_cap);
        max_plane_elems_ = std::max(max_plane_elems_, g.plane_elems);
        max_codes_ = std::max(max_codes_, g.codes_cap);
        max_kdim_ = std::max(max_kdim_, g.kdim);
    }
}

std::vector<tensor::Shape> ExecPlan::shapes_for(int batch_n) const {
    if (batch_n < 1 || batch_n > options_.batch_capacity)
        throw std::invalid_argument("ExecPlan: batch size " + std::to_string(batch_n) +
                                    " outside [1, " +
                                    std::to_string(options_.batch_capacity) + "]");
    return ir::infer_shapes(*graph_, batch_n);
}

}  // namespace raq::exec
