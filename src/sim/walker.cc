/**
 * @file
 * The dataflow walker: one interpreter of Fig. 4 descriptors.
 */

#include "sim/walker.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "sim/arch.hh"

namespace ganacc {
namespace sim {

using tensor::Shape4;
using tensor::Tensor;

namespace {

using u64 = std::uint64_t;

/**
 * The plain contiguous row: acc[f] += v * k[f] for f < n. A fixed
 * 8-wide chunk plus a scalar tail, so the default -O2 vectorizer takes
 * the chunk; each lane is its own accumulator, so the bits are the
 * scalar loop's (library code is built without FP contraction).
 */
void
blockRow(float *__restrict acc, const float *__restrict k, float v, int n)
{
    int f = 0;
    for (; f + 8 <= n; f += 8)
        for (int j = 0; j < 8; ++j)
            acc[f + j] += v * k[f + j];
    for (; f < n; ++f)
        acc[f] += v * k[f];
}

/**
 * The MAC path of one functional walk, built from the fault hook when
 * the walk starts: the hook, its row filter and visitIneffectual(),
 * read once. The walk calls cycle() once per step. When the hook
 * visits ineffectual slots and its filter lists its loud rows, those
 * rows are projected into a cycle bitmap here, so a cycle holding none
 * of them is settled without a per-row test. Quiet MACs are tallied
 * here and added to the filter's counter when the path goes out of
 * scope.
 */
class MacPath
{
  public:
    MacPath(MacFaultHook *hook, const CycleProjection &proj)
        : hook_(hook), presented_(hook != nullptr)
    {
        if (hook_ == nullptr)
            return;
        ineffectual_ = hook_->visitIneffectual();
        const MacRowFilter *f = hook_->rowFilter();
        if (f == nullptr)
            return;
        filter_ = *f;
        // A settled cycle tallies its ineffectual MACs as quiet, so
        // only a walk that would visit them may settle it.
        if (!ineffectual_ || filter_.rows == nullptr)
            return;
        settles_ = true;
        const u64 *const stride = filter_.stride;
        for (const u64 row : *filter_.rows) {
            const u64 in_c = row % stride[0], in_oy = in_c % stride[1],
                      in_ox = in_oy % stride[2];
            const u64 bit =
                proj.key(int(row / stride[0]), int(in_c / stride[1]),
                         int(in_oy / stride[2]), int(in_ox / stride[3]),
                         int(in_ox % stride[3])) &
                kCycleMask;
            cycleBits_[bit >> 6] |= u64(1) << (bit & 63);
        }
    }
    ~MacPath()
    {
        if (quiet_ != 0)
            *filter_.quietMacs += quiet_;
    }
    MacPath(const MacPath &) = delete;
    MacPath &operator=(const MacPath &) = delete;

    /**
     * Open a step: `key` under the walk's projection and the `macs`
     * scheduled MACs of its cycles, effectual and ineffectual. True
     * when the hook must see its rows, which then take the per-row
     * test in row(). False without a hook, or when it settles: its MACs
     * are tallied as quiet and it runs exactly as the unhooked walk
     * would.
     */
    bool
    cycle(u64 key, u64 macs)
    {
        if (!settles_)
            return presented_;
        const u64 bit = key & kCycleMask;
        presented_ = (cycleBits_[bit >> 6] >> (bit & 63) & 1) != 0;
        if (!presented_)
            quiet_ += macs;
        return presented_;
    }

    /**
     * One scheduled operand row on the register block: input `v` times
     * the `of_cnt` weights `k` of output maps [ctx.of, ctx.of + of_cnt)
     * on lanes ctx.lane + f, into the row's block entry `acc`. `useful`
     * means the row multiplies on an unhooked walk. A row that is not
     * `effectual` reaches the hook only in a presented step of a hook
     * that visits ineffectual slots. A row the hook does not see (no
     * hook, a settled step, or a row its filter marks quiet) is
     * multiplied only when `useful`: an ineffectual one adds ±0 on
     * finite operands, which never changes an accumulator that starts
     * at +0. A row the hook sees gets the same (ctx, a, b) per MAC as
     * on any other path.
     */
    void
    row(float *acc, const float *k, float v, bool effectual, bool useful,
        MacContext ctx, int of_cnt)
    {
        if (presented_) {
            if (!effectual && !ineffectual_)
                return;
            if (filter_.bits == nullptr ||
                filter_.loud(ctx.c, ctx.oy, ctx.ox, ctx.ky, ctx.kx)) {
                const int lane0 = ctx.lane, of0 = ctx.of;
                for (int f = 0; f < of_cnt; ++f) {
                    ctx.lane = lane0 + f;
                    ctx.of = of0 + f;
                    acc[f] += hook_->onMac(ctx, v, k[f]);
                }
                return;
            }
            quiet_ += u64(of_cnt);
        }
        if (useful)
            blockRow(acc, k, v, of_cnt);
    }

  private:
    /** The cycle bitmap: 2^16 bits, 8 KB. */
    static constexpr u64 kCycleMask = (1u << 16) - 1;

    MacFaultHook *hook_;
    bool ineffectual_ = false; ///< visit ineffectual slots
    bool settles_ = false;     ///< cycle() reads the cycle bitmap
    bool presented_ = false;   ///< the open step goes row by row
    MacRowFilter filter_;      ///< bits null: present every MAC
    u64 quiet_ = 0;            ///< MACs of quiet rows and steps
    /** Bit key & kCycleMask set when a loud row projects there. */
    u64 cycleBits_[(kCycleMask + 1) / 64] = {};
};

/** One scheduled row of a pass, at input map 0. */
struct Row
{
    int oy, ox, ky, kx;
    int lane;            ///< first physical lane
    std::uint32_t entry; ///< register-block entry in plane 0
    std::uint32_t wofs;  ///< staged weights at input map 0
    std::int32_t inofs;  ///< input offset in map 0; -1 for padding
    /** Multiplied on an unhooked walk: both operands in bounds and
     *  non-zero; on a gated array, a tap that is not a structural zero,
     *  multiplied when its input value is non-zero. */
    bool useful;
};

/** One step of a pass: its rows and what each of its cycles counts. */
struct Step
{
    std::uint32_t row0, row1;
    u64 key;               ///< projection key at input map 0
    std::uint32_t inWords; ///< input words per input map
    bool live;             ///< some row multiplies on an unhooked walk
};

/** A point of the tiled or walked space: its two coordinates, its
 *  index in the class's row-major list of them, and, as a tile member,
 *  its first lane. `rowStart` marks a step that starts a row, and
 *  `kzero` a structural-zero kernel tap. */
struct Point
{
    int y, x, idx, lane;
    bool rowStart, kzero;
};

class Walker
{
  public:
    Walker(const Architecture &arch, const Dataflow &d, const ConvSpec &s,
           const Tensor *in, const Tensor *w, Tensor *out)
        : d_(d), s_(s), in_(in), w_(w), out_(out),
          rec_(arch.scheduleRecorder()), nPes_(arch.numPes()),
          fourD_(s.fourDimOutput), planes_(fourD_ ? s.nif : 1),
          kMaps_(fourD_ ? 1 : s.nif),
          // On 4-D outputs the input maps are separate outputs that no
          // adder tree sums: one a cycle.
          cLanes_(d.cLanes == 0 || fourD_ ? 1 : d.cLanes),
          cLaneStride_(d.pOf * d.tileY * d.tileX),
          // A step that fixes its output sums its rows into one partial
          // sum through the adder tree.
          oneOut_(d.walked == Space::Outputs || !d.tileOnLanes),
          ofSpan_(std::min(d.pOf, s.nof)), proj_(cycleProjection(d, s)),
          path_(arch.faultHook(), proj_)
    {
        for (int iy = 0; iy < s.ih; ++iy)
            inRow0_.push_back(s.inputRowZero(iy));
        for (int ix = 0; ix < s.iw; ++ix)
            inCol0_.push_back(s.inputColZero(ix));
    }

    RunStats run();

  private:
    void runClass(const ParityClass &cls);
    void buildPass(int height, int width);
    void runPass(bool first, bool last);
    void runSteps(int c0, int c1, bool accumulating, bool drains);
    void record(const Step &sp, int c0, int c1, bool accumulating,
                bool drains);

    const Dataflow &d_;
    const ConvSpec &s_;
    const Tensor *in_, *w_;
    Tensor *out_;
    ScheduleRecorder *rec_;
    const int nPes_;
    const bool fourD_;
    const int planes_, kMaps_, cLanes_, cLaneStride_;
    const bool oneOut_;
    const int ofSpan_;
    const CycleProjection proj_;
    MacPath path_;
    RunStats st_;
    std::vector<char> inRow0_, inCol0_;

    // The open class and its points.
    const ParityClass *cls_ = nullptr;
    std::vector<Point> walked_, tiled_, members_;

    // The open of-tile.
    int of0_ = 0, ofCnt_ = 0;
    /** Partial sums of the class grid, [plane][y][x][of], ofSpan_ floats
     *  an entry. */
    std::vector<float> block_;
    /** Staged weights of the class taps, [tap][kernel map][of]. */
    std::vector<float> wts_;

    // The open pass, members_ its tile: the first nSteps_ steps and
    // nRows_ rows of the tables, and sums over its steps.
    std::vector<Step> steps_;
    std::vector<Row> rows_;
    std::size_t nSteps_ = 0, nRows_ = 0;
    u64 effective_ = 0, outs_ = 0, inWords_ = 0;
};

RunStats
Walker::run()
{
    // Write-through partial sums live in the zero-initialized output
    // buffer: one job-wide window covers every accumulation.
    const bool job_window = rec_ && d_.psums == WindowKind::WriteThrough;
    if (job_window)
        rec_->onWindowBegin(u64(s_.nof) * s_.oh * s_.ow * planes_,
                            WindowKind::WriteThrough);
    for (const ParityClass &cls : parityClasses(s_, d_.zeroFree))
        if (!cls.empty())
            runClass(cls);
    if (job_window)
        rec_->onWindowEnd();
    return st_;
}

void
Walker::runClass(const ParityClass &cls)
{
    cls_ = &cls;
    const int ny = cls.y.count, nx = cls.x.count;

    // The class's points of a space, row-major; returns the columns.
    const auto points = [&](Space sp, std::vector<Point> &pts) {
        std::vector<int> sy, sx;
        if (sp == Space::Taps) {
            sy = cls.y.taps;
            sx = cls.x.taps;
        } else if (sp == Space::Outputs) {
            for (int t = 0; t < ny; ++t)
                sy.push_back(cls.y.first + t * cls.step);
            for (int t = 0; t < nx; ++t)
                sx.push_back(cls.x.first + t * cls.step);
        } else {
            for (int i = 0; i < s_.ih; ++i)
                sy.push_back(i);
            for (int i = 0; i < s_.iw; ++i)
                sx.push_back(i);
        }
        pts.clear();
        for (std::size_t i = 0; i < sy.size(); ++i)
            for (std::size_t j = 0; j < sx.size(); ++j)
                pts.push_back({sy[i], sx[j], int(i * sx.size() + j), 0,
                               j == 0,
                               sp == Space::Taps &&
                                   (s_.kernelRowZero(sy[i]) ||
                                    s_.kernelColZero(sx[j]))});
        return int(sx.size());
    };
    points(d_.walked, walked_);

    // The passes: tiles of the tiled space in row-major order, a flat
    // tiling being one row of tileY * tileX points. Each is built where
    // it runs, so its tables stay in cache.
    int cols = points(d_.tiled, tiled_), rows = int(tiled_.size()) / cols;
    int tile_y = d_.tileY, tile_x = d_.tileX;
    if (d_.flat) {
        cols *= rows;
        rows = 1;
        tile_x *= tile_y;
        tile_y = 1;
    }
    const int passes =
        (rows + tile_y - 1) / tile_y * ((cols + tile_x - 1) / tile_x);

    const bool functional = in_ != nullptr;
    const std::size_t n_taps = cls.y.taps.size() * cls.x.taps.size();
    const std::size_t plane = std::size_t(ny) * std::size_t(nx);
    for (of0_ = 0; of0_ < s_.nof; of0_ += d_.pOf) {
        ofCnt_ = std::min(d_.pOf, s_.nof - of0_);
        if (functional) {
            // The block holds the of-tile over the class grid through
            // every pass and input map, so it starts at +0 like the
            // output and is stored once.
            block_.assign(std::size_t(planes_) * plane * ofSpan_, 0.0f);
            wts_.resize(n_taps * kMaps_ * ofSpan_);
            const Shape4 &ks = w_->shape();
            const std::size_t k_step = std::size_t(ks.d1) * ks.d2 * ks.d3;
            float *dst = wts_.data();
            for (int ky : cls.y.taps)
                for (int kx : cls.x.taps)
                    for (int c = 0; c < kMaps_; ++c, dst += ofSpan_) {
                        const float *src =
                            w_->data() + ks.offset(of0_, c, ky, kx);
                        for (int f = 0; f < ofCnt_; ++f)
                            dst[f] = src[f * k_step];
                    }
        }
        const bool window = rec_ && d_.psums == WindowKind::AccumBuffer;
        if (window)
            rec_->onWindowBegin(plane * ofCnt_ * planes_,
                                WindowKind::AccumBuffer);
        int pass = 0;
        for (int y0 = 0; y0 < rows; y0 += tile_y)
            for (int x0 = 0; x0 < cols; x0 += tile_x, ++pass) {
                const int h = std::min(tile_y, rows - y0);
                const int wd = std::min(tile_x, cols - x0);
                members_.clear();
                for (int dy = 0; dy < h; ++dy)
                    for (int dx = 0; dx < wd; ++dx) {
                        members_.push_back(
                            tiled_[std::size_t((y0 + dy) * cols + x0 + dx)]);
                        members_.back().lane = (dy * tile_x + dx) * d_.pOf;
                    }
                // A flat tile's column is at most tileY points tall.
                const int col = std::min(wd, d_.tileY);
                buildPass(d_.flat ? col : h, d_.flat ? col : wd);
                runPass(pass == 0, pass + 1 == passes);
            }
        if (window)
            rec_->onWindowEnd();
        if (!functional)
            continue;
        // Store the block: entry (p, i, j) is output
        // (of0 + f, [p,] y0 + i * step, x0 + j * step).
        const Shape4 &os = out_->shape();
        const std::size_t f_step =
            std::size_t(os.d2) * os.d3 * (fourD_ ? os.d1 : 1);
        const float *src = block_.data();
        for (int p = 0; p < planes_; ++p)
            for (int i = 0; i < ny; ++i)
                for (int j = 0; j < nx; ++j, src += ofSpan_) {
                    const int y = cls.y.first + i * cls.step;
                    const int x = cls.x.first + j * cls.step;
                    float *dst = out_->data() +
                                 (fourD_ ? os.offset(of0_, p, y, x)
                                         : os.offset(0, of0_, y, x));
                    for (int f = 0; f < ofCnt_; ++f)
                        dst[std::size_t(f) * f_step] = src[f];
                }
    }
}

void
Walker::buildPass(int height, int width)
{
    const std::size_t w_tap = std::size_t(kMaps_) * ofSpan_;
    // Locals, so that the stores into the tables do not reload them.
    const bool tiles_outputs = d_.tiled == Space::Outputs;
    const bool inputs = d_.walked == Space::Inputs, skip = d_.skipZeros,
               gate = d_.gateZeroValues;
    const InputReuse reuse = d_.inputs;
    const int stride = s_.stride, pad = s_.pad, ih = s_.ih, iw = s_.iw,
              of_span = ofSpan_;
    const char *const in_row0 = inRow0_.data();
    const char *const in_col0 = inCol0_.data();
    // The tables only grow; the pass writes them in place.
    if (steps_.size() < walked_.size())
        steps_.resize(walked_.size());
    if (rows_.size() < walked_.size() * members_.size())
        rows_.resize(walked_.size() * members_.size());
    Step *const steps = steps_.data();
    Row *const rows = rows_.data();
    std::size_t n_steps = 0, n_rows = 0;
    u64 effective = 0, outs = 0, in_words = 0;
    for (const Point &b : walked_) {
        Step sp{std::uint32_t(n_rows), 0, 0, 0, false};
        for (const Point &m : members_) {
            // The row's lattice point: the member's two coordinates and
            // the step's (for an input step, the output it reaches).
            const Point &o = tiles_outputs ? m : b;
            const Point &t = tiles_outputs ? b : m;
            const int ky = t.y, kx = t.x;
            int oy = o.y, ox = o.x, out_idx = o.idx;
            if (inputs) {
                // The output the input reaches through the tap, if any.
                const int ry = b.y - ky + pad, rx = b.x - kx + pad;
                oy = ry / stride;
                ox = rx / stride;
                if (ry < 0 || rx < 0 || ry % stride || rx % stride ||
                    oy >= s_.oh || ox >= s_.ow)
                    continue;
                out_idx = (oy - cls_->y.first) / cls_->step * cls_->x.count +
                          (ox - cls_->x.first) / cls_->step;
            }
            const int iy = oy * stride + ky - pad, ix = ox * stride + kx - pad;
            const bool in_range = iy >= 0 && iy < ih && ix >= 0 && ix < iw;
            // Bitwise, not short-circuit: zero patterns defeat the branch
            // predictor.
            const bool zero =
                t.kzero | (in_range && (in_row0[iy] | in_col0[ix]) != 0);
            if (skip && zero)
                continue;
            const bool useful = gate ? !t.kzero : in_range & !zero;
            rows[n_rows++] = {oy, ox, ky, kx, m.lane,
                              std::uint32_t(out_idx * of_span),
                              std::uint32_t(std::size_t(t.idx) * w_tap),
                              in_range ? iy * iw + ix : -1, useful};
            // Every row of a step has the step's key.
            sp.key = proj_.key(0, oy, ox, ky, kx);
            effective += in_range & !zero;
            sp.live |= useful;
        }
        sp.row1 = std::uint32_t(n_rows);
        const int step_rows = int(sp.row1 - sp.row0);
        if (step_rows == 0 && !inputs)
            continue;
        const bool first_step = n_steps == 0;
        switch (reuse) {
          case InputReuse::Broadcast:
            sp.inWords = 1;
            break;
          case InputReuse::Reload:
            sp.inWords = std::uint32_t(step_rows);
            break;
          case InputReuse::Shift:
            sp.inWords = std::uint32_t(first_step  ? step_rows
                                       : b.rowStart ? width
                                                    : height);
            break;
        }
        steps[n_steps++] = sp;
        outs += oneOut_ ? step_rows != 0 : step_rows;
        in_words += sp.inWords;
    }
    nSteps_ = n_steps;
    nRows_ = n_rows;
    effective_ = effective;
    outs_ = outs;
    inWords_ = in_words;
}

void
Walker::runPass(bool first, bool last)
{
    const u64 tile_words = u64(members_.size()) * u64(ofCnt_);
    if (d_.weights == WeightReuse::Resident) {
        st_.weightLoads += tile_words;
        if (rec_)
            rec_->onPort(SchedPort::Weight, tile_words);
    }
    // A register tile accumulates over every input map, or over one on
    // 4-D outputs, and is drained at the end of its window.
    const bool tile_window = d_.psums == WindowKind::RegisterTile;
    const int c_step = d_.cLanes != 0 ? s_.nif : 1;
    for (int c = 0; c < s_.nif; c += c_step) {
        const int c_end = c + c_step;
        if (tile_window && rec_ && (fourD_ || c == 0))
            rec_->onWindowBegin(tile_words, WindowKind::RegisterTile);
        runSteps(c, c_end, !first || (!fourD_ && c > 0),
                 last && (fourD_ || c_end == s_.nif));
        if (tile_window && (fourD_ || c_end == s_.nif)) {
            st_.outputWrites += tile_words;
            if (rec_) {
                rec_->onPort(SchedPort::OutputWrite, tile_words);
                rec_->onDrain(0, tile_words);
                rec_->onWindowEnd();
            }
        }
    }
}

void
Walker::runSteps(int c0, int c1, bool accumulating, bool drains)
{
    // The pass's counts, for every step at once.
    const u64 n_c = u64(c1 - c0), of_cnt = u64(ofCnt_);
    const u64 n_steps = nSteps_;
    const u64 step_cycles = (n_c + cLanes_ - 1) / cLanes_;
    const u64 cycles = step_cycles * n_steps;
    const u64 macs = u64(nRows_) * n_c * of_cnt;
    const u64 eff = effective_ * n_c * of_cnt;
    st_.cycles += cycles;
    st_.effectiveMacs += eff;
    st_.ineffectualMacs += macs - eff;
    st_.idlePeSlots += cycles * u64(nPes_) - macs;
    if (d_.weights == WeightReuse::PerCycle)
        st_.weightLoads += n_steps * n_c * of_cnt;
    st_.inputLoads += inWords_ * n_c;
    if (d_.psums != WindowKind::RegisterTile) {
        const u64 sums = step_cycles * outs_ * of_cnt;
        st_.outputWrites += sums;
        if (d_.psums == WindowKind::WriteThrough || accumulating)
            st_.outputReads += sums;
    }
    if (rec_ == nullptr && in_ == nullptr)
        return;

    const bool gate = d_.gateZeroValues;
    const std::size_t acc_c =
        fourD_ ? std::size_t(cls_->y.count) * cls_->x.count * ofSpan_ : 0;
    const std::size_t k_c = fourD_ ? 0 : std::size_t(ofSpan_);
    const std::size_t x_c = std::size_t(s_.ih) * s_.iw;
    const u64 key_c = u64(c0) * proj_.coef[0];
    for (const Step &sp : std::span(steps_.data(), nSteps_)) {
        if (rec_)
            record(sp, c0, c1, accumulating, drains);
        const Row *const r0 = rows_.data() + sp.row0;
        const Row *const r1 = rows_.data() + sp.row1;
        // Ineffectual scheduled slots (padding, structural zeros) still
        // flow through the multipliers, so a hook that asks sees them;
        // their fault-free product is zero.
        if (in_ == nullptr || r0 == r1 ||
            (!path_.cycle(sp.key + key_c, u64(r1 - r0) * n_c * of_cnt) &&
             !sp.live))
            continue;
        float *acc = block_.data() + std::size_t(c0) * acc_c;
        const float *k = wts_.data() + std::size_t(c0) * k_c;
        const float *x = in_->data() + std::size_t(c0) * x_c;
        for (int c = c0, li = 0; c < c1;
             ++c, acc += acc_c, k += k_c, x += x_c) {
            const int lane = li * cLaneStride_;
            if (++li == cLanes_)
                li = 0;
            for (const Row *r = r0; r != r1; ++r) {
                const float v = r->inofs >= 0 ? x[r->inofs] : 0.0f;
                // A gated array streams every non-zero input value, a
                // structural-zero tap's too.
                const bool effectual = gate ? v != 0.0f : r->useful;
                path_.row(acc + r->entry, k + r->wofs, v, effectual,
                          effectual && r->useful,
                          MacContext{r->lane + lane, of0_, c, r->oy, r->ox,
                                     r->ky, r->kx},
                          ofCnt_);
            }
        }
    }
}

void
Walker::record(const Step &sp, int c0, int c1, bool accumulating, bool drains)
{
    const Row *const r0 = rows_.data() + sp.row0;
    const Row *const r1 = rows_.data() + sp.row1;
    // The partial sums the step touches: one per row, or its rows' one.
    const Row *const outs = oneOut_ ? std::min(r0 + 1, r1) : r1;
    const u64 of_cnt = u64(ofCnt_), sums = u64(outs - r0) * of_cnt;
    const u64 plane = u64(cls_->y.count) * cls_->x.count * of_cnt;
    for (int c = c0; c < c1; c += cLanes_) {
        const int cnt = std::min(cLanes_, c1 - c);
        rec_->onCycle();
        for (int ci = 0; ci < cnt; ++ci)
            for (const Row *r = r0; r != r1; ++r)
                rec_->onLanes(r->lane + ci * cLaneStride_, ofCnt_);
        if (d_.weights == WeightReuse::PerCycle)
            rec_->onPort(SchedPort::Weight, u64(cnt) * of_cnt);
        rec_->onPort(SchedPort::Input, u64(sp.inWords) * cnt);
        if (d_.psums == WindowKind::RegisterTile) {
            rec_->onCellWrite(0, u64(r1 - r0) * of_cnt);
            continue;
        }
        const bool reads =
            d_.psums == WindowKind::WriteThrough || accumulating;
        rec_->onPort(SchedPort::OutputWrite, sums);
        if (reads)
            rec_->onPort(SchedPort::OutputRead, sums);
        for (const Row *r = r0; r != outs; ++r) {
            // A write-through cell is the output's place in the job; an
            // accumulation-buffer cell is its place in the window.
            const u64 cell =
                d_.psums == WindowKind::WriteThrough
                    ? schedCellIndex(s_, of0_, c, r->oy, r->ox)
                    : r->entry / u64(ofSpan_) * of_cnt +
                          (fourD_ ? u64(c) * plane : 0);
            if (reads)
                rec_->onCellRead(cell, of_cnt);
            rec_->onCellWrite(cell, of_cnt);
            if (drains && d_.psums == WindowKind::AccumBuffer)
                rec_->onDrain(cell, of_cnt);
        }
    }
}

} // namespace

CycleProjection
cycleProjection(const Dataflow &d, const ConvSpec &s)
{
    CycleProjection p;
    u64 unit = 1;
    if (d.walked == Space::Inputs) {
        const u64 m = u64(s.iw) + s.pad;
        p.coef[1] = u64(s.stride) * m;
        p.coef[2] = u64(s.stride);
        p.coef[3] = m;
        p.coef[4] = 1;
        unit = (u64(s.ih) + s.pad) * m;
    } else if (d.walked == Space::Taps) {
        p.coef[4] = 1;
        p.coef[3] = u64(s.kw);
        unit = u64(s.kh) * s.kw;
        if (!d.tileOnLanes) {
            p.coef[2] = unit;
            p.coef[1] = unit * u64(s.ow);
            unit *= u64(s.oh) * s.ow;
        }
    } else {
        p.coef[2] = 1;
        p.coef[1] = u64(s.ow);
        unit = u64(s.oh) * s.ow;
    }
    if (d.cLanes == 0)
        p.coef[0] = unit;
    return p;
}

RunStats
walk(const Architecture &arch, const Dataflow &d, const ConvSpec &spec,
     const Tensor *in, const Tensor *w, Tensor *out)
{
    return Walker(arch, d, spec, in, w, out).run();
}

} // namespace sim
} // namespace ganacc
