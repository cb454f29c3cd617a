/* Native set-flow tier: the enumeration frontier as one compiled call,
 * plus the concrete walk every serial step of a scan runs on.
 *
 * cse_native_scan advances a whole batch of segments' enumeration
 * frontiers in one C call, each segment read at its own width (uint8 or
 * int64) through its own pointer.
 * A segment's frontier is its *distinct live states*, not one lane per
 * start state: active[0..m) holds the states, and each lane (a start
 * state, grouped by convergence set) holds a slot into active.  Per
 * position only the m live states are gathered.  A strided collapse
 * check every K positions (adaptive K, the NATIVE_STRIDE_MIN/MAX ladder
 * below -- correctness is stride-independent because the outcomes
 * are derived from the final frontier) dedups active in O(m), remaps the
 * slots only when states merged, and reads a convergence set as
 * collapsed when all its lanes share one slot.  Once m == 1 the segment
 * stops: every enumeration path is one path now, and what is left is a
 * scalar tail from one known state.  So a frontier whose sets collapsed
 * to a few distinct states costs those few gathers per position, the
 * paper's M, however many start states it enumerates.
 *
 * A tail is one chain of dependent loads, and on a machine that
 * collapses fast (random64) the tails are nearly all of a batch's
 * positions.  So they are not walked one after another: after every
 * frontier has run, one pass walks all pending tails TAIL_LANES at a
 * time, round robin, and a lane whose tail ends takes the next pending
 * one.  The tails are independent, so each lane's loads fill the others'
 * latency -- on one core, the paper's independent flows side by side.
 *
 * cse_native_walk is the other half: one concrete walk from a start
 * state (segment 0, global re-execution, a matcher's report pass).  It
 * reads symbols at their own width (uint8 or int64) and collects
 * (offset, state) reports into a caller-sized buffer, pausing when the
 * buffer fills and resuming on the next call.
 *
 * cse_native_walks runs many such walks at once, each span from its own
 * start state, through the tail pass: the SFA plan's chained verify
 * walks every segment from its claimed start boundary as one lane.
 *
 * cse_native_prefilter is the literal prefilter (prefilter.py) for a
 * batch of segments: a backward scan per segment to its rightmost run of
 * skip_width non-anchor symbols (a proven reset to home), then the walk
 * of only the tail after that run.
 *
 * cse_native_lanes walks k independent lanes over one state-major int32
 * table (rows x alphabet, entries are row offsets), the tail pass's round
 * robin with one addition: a negative entry marks a row not built yet,
 * and a lane that reads one pauses there and reports its position and
 * state for the caller to build the row and resume it.  The lazily grown
 * SFA (sfa.py) is its table: one lane per segment gives that segment's
 * whole function.
 *
 * Deliberately plain C with a flat pointer ABI: no Python.h, no numpy
 * headers.  The Python side (native.py) loads it through ctypes, passes
 * preallocated numpy buffers (every scratch buffer too: nothing here
 * allocates), and derives each convergence set's outcome from the final
 * frontier, so outcomes stay bit-identical to every other backend.
 */

#include <stdint.h>

/* bump when the entry-point signatures change; native.py refuses to use
 * a library whose cse_native_abi() disagrees */
#define CSE_NATIVE_ABI 7

/* the adaptive collapse-check ladder: start at MIN, double toward MAX
 * while checks find nothing new (native.py mirrors NATIVE_STRIDE_MIN) */
#define NATIVE_STRIDE_MIN 8
#define NATIVE_STRIDE_MAX 512

/* scalar tails walked side by side by the tail pass */
#define TAIL_LANES 8

/* table and symbol element kinds (must match _TABLE_KINDS and
 * _SYMBOL_KINDS in native.py); symbols use KIND_U8 and KIND_I64 only */
#define KIND_U8 0
#define KIND_U16 1
#define KIND_I64 2

/* stats_out slot layout (must match _STAT_* in native.py) */
#define STAT_NATIVE_POSITIONS 0
#define STAT_STRIDE_CHECKS 1
#define STAT_DEGRADED 2
#define STAT_SCALAR_POSITIONS 3
#define STAT_FRONTIER_STEPS 4
#define STAT_SLOTS 5

/* cse_native_walk return codes (must match _WALK_* in native.py) */
#define WALK_DONE 0
#define WALK_PAUSED 1
#define WALK_BAD_KIND -1
#define WALK_BAD_SYMBOL -2

int64_t cse_native_abi(void) { return CSE_NATIVE_ABI; }

/* A segment's live frontier.  active[0..m) holds the distinct current
 * states; lane j (the flow that started at init[j]) is at active[slot[j]].
 * Lanes are grouped by convergence set: set b owns lanes [cs_starts[b],
 * cs_starts[b] + cs_sizes[b]).  remap (width entries) and stamp (n_states
 * entries, every one -1 between checks) are collapse-check scratch. */
struct frontier {
    int64_t *active, *slot, *remap, *stamp;
    int64_t m, width, n_states;
    const int64_t *cs_starts, *cs_sizes;
    int64_t n_blocks;
    uint8_t *seen;
    int merged;   /* lanes merged since the last per-set read */
};

/* One strided collapse check.  Deduplicates active[0..m) in O(m) through
 * the stamp array (left all -1 again), remaps the lanes' slots only when
 * two entries merged, and reads a convergence set as collapsed when all
 * its lanes share one slot.  A set that collapsed stays collapsed, so the
 * per-set read runs only after a merge (or on the first check, where
 * single-lane sets count as fresh collapses).  Returns 1 when some set
 * collapsed for the first time in this segment, 0 when none did, -1 on a
 * state outside [0, n_states) (a table that does not describe the
 * machine). */
static int
frontier_check(struct frontier *f)
{
    int64_t i, j, b, m = 0;
    int fresh = 0;
    for (i = 0; i < f->m; i++) {
        const int64_t v = f->active[i];
        if ((uint64_t)v >= (uint64_t)f->n_states) {
            for (j = 0; j < m; j++)
                f->stamp[f->active[j]] = -1;
            return -1;
        }
        if (f->stamp[v] < 0) {
            f->stamp[v] = m;
            f->active[m++] = v;
        }
        f->remap[i] = f->stamp[v];
    }
    for (i = 0; i < m; i++)
        f->stamp[f->active[i]] = -1;
    if (m < f->m) {
        for (j = 0; j < f->width; j++)
            f->slot[j] = f->remap[f->slot[j]];
        f->m = m;
        f->merged = 1;
    }
    if (!f->merged)
        return 0;
    f->merged = 0;
    for (b = 0; b < f->n_blocks; b++) {
        const int64_t lo = f->cs_starts[b], hi = lo + f->cs_sizes[b];
        if (f->seen[b])
            continue;
        for (j = lo + 1; j < hi && f->slot[j] == f->slot[lo]; j++)
            ;
        if (j >= hi) {
            f->seen[b] = 1;
            fresh = 1;
        }
    }
    return fresh;
}

/* One segment's frontier, per (table kind, symbol kind).  Per position
 * only the m live states are gathered; every K positions (adaptive K, the
 * NATIVE_STRIDE_MIN/MAX ladder) a collapse check dedups
 * them, and once m == 1 the segment stops with a scalar tail left to
 * walk.  Writes the tail's start position to *tail_pos and its start
 * state to *tail_state (-1 when the frontier never became one state) and
 * returns WALK_DONE, or WALK_BAD_KIND from the check. */
#define DEFINE_FRONTIER_SCAN(NAME, TAB_T, SYM_T)                             \
static int64_t                                                               \
NAME(const TAB_T *tab, const SYM_T *syms, int64_t len, int64_t stride,       \
     struct frontier *f, int64_t *stats, int64_t *tail_pos,                  \
     int64_t *tail_state)                                                    \
{                                                                            \
    const int64_t n = f->n_states;                                           \
    int64_t *active = f->active;                                             \
    int64_t k = stride > 0 ? stride : NATIVE_STRIDE_MIN;                     \
    int64_t next_check = k, m = f->m, steps = 0, t, i;                       \
    *tail_state = -1;                                                        \
    for (t = 0; t < len; t++) {                                              \
        const TAB_T *col = tab + (int64_t)syms[t] * n;                       \
        for (i = 0; i < m; i++)                                              \
            active[i] = (int64_t)col[active[i]];                             \
        steps += m;                                                          \
        if (m > 0 && t + 1 >= next_check) {                                  \
            int fresh;                                                       \
            f->m = m;                                                        \
            fresh = frontier_check(f);                                       \
            m = f->m;                                                        \
            stats[STAT_STRIDE_CHECKS]++;                                     \
            if (fresh < 0)                                                   \
                return WALK_BAD_KIND;                                        \
            if (m == 1) {                                                    \
                /* every enumeration path is the same path now */            \
                stats[STAT_DEGRADED]++;                                      \
                stats[STAT_SCALAR_POSITIONS] += len - (t + 1);               \
                *tail_pos = t + 1;                                           \
                *tail_state = active[0];                                     \
                t++;                                                         \
                break;                                                       \
            }                                                                \
            if (stride <= 0)                                                 \
                k = fresh ? NATIVE_STRIDE_MIN                                \
                          : (k * 2 > NATIVE_STRIDE_MAX                       \
                                 ? NATIVE_STRIDE_MAX : k * 2);               \
            next_check = t + 1 + k;                                          \
        }                                                                    \
    }                                                                        \
    stats[STAT_NATIVE_POSITIONS] += t;                                       \
    stats[STAT_FRONTIER_STEPS] += steps;                                     \
    return WALK_DONE;                                                        \
}

DEFINE_FRONTIER_SCAN(frontier_u8_u8, uint8_t, uint8_t)
DEFINE_FRONTIER_SCAN(frontier_u16_u8, uint16_t, uint8_t)
DEFINE_FRONTIER_SCAN(frontier_i64_u8, int64_t, uint8_t)
DEFINE_FRONTIER_SCAN(frontier_u8_i64, uint8_t, int64_t)
DEFINE_FRONTIER_SCAN(frontier_u16_i64, uint16_t, int64_t)
DEFINE_FRONTIER_SCAN(frontier_i64_i64, int64_t, int64_t)

/* Walk every pending scalar tail, per (table kind, symbol kind).
 * pending holds n_pending segment ids; segment s's tail starts at
 * position tail_pos[s] from state collapsed_out[s], and its final state
 * replaces that entry when the tail ends.  Busy lanes are [0, live).
 * Each round steps every busy lane by the shortest remaining length, so
 * no lane tests its end inside a round; then lanes whose tail ended
 * write it out and take the next pending tails. */
#define DEFINE_TAILS(NAME, TAB_T, SYM_T)                                     \
static void                                                                  \
NAME(const TAB_T *tab, int64_t n, const int64_t *seg_ptrs,                   \
     const int64_t *seg_lens, const int64_t *pending, int64_t n_pending,     \
     const int64_t *tail_pos, int64_t *collapsed_out)                        \
{                                                                            \
    const SYM_T *sym[TAIL_LANES];                                            \
    int64_t q[TAIL_LANES], left[TAIL_LANES], seg[TAIL_LANES];                \
    int64_t next = 0, live = 0, run, t, i;                                   \
    for (;;) {                                                               \
        while (live < TAIL_LANES && next < n_pending) {                      \
            const int64_t s = pending[next++];                               \
            sym[live] = (const SYM_T *)(intptr_t)seg_ptrs[s] + tail_pos[s];  \
            left[live] = seg_lens[s] - tail_pos[s];                          \
            q[live] = collapsed_out[s];                                      \
            seg[live++] = s;                                                 \
        }                                                                    \
        if (live == 0)                                                       \
            return;                                                          \
        run = left[0];                                                       \
        for (i = 1; i < live; i++)                                           \
            if (left[i] < run)                                               \
                run = left[i];                                               \
        for (t = 0; t < run; t++)                                            \
            for (i = 0; i < live; i++)                                       \
                q[i] = (int64_t)tab[(int64_t)sym[i][t] * n + q[i]];          \
        for (i = 0; i < live;) {                                             \
            sym[i] += run;                                                   \
            left[i] -= run;                                                  \
            if (left[i] > 0) {                                               \
                i++;                                                         \
                continue;                                                    \
            }                                                                \
            /* the tail ended: the last busy lane moves into its place */    \
            collapsed_out[seg[i]] = q[i];                                    \
            live--;                                                          \
            sym[i] = sym[live];                                              \
            left[i] = left[live];                                            \
            q[i] = q[live];                                                  \
            seg[i] = seg[live];                                              \
        }                                                                    \
    }                                                                        \
}

DEFINE_TAILS(tails_u8_u8, uint8_t, uint8_t)
DEFINE_TAILS(tails_u16_u8, uint16_t, uint8_t)
DEFINE_TAILS(tails_i64_u8, int64_t, uint8_t)
DEFINE_TAILS(tails_u8_i64, uint8_t, int64_t)
DEFINE_TAILS(tails_u16_i64, uint16_t, int64_t)
DEFINE_TAILS(tails_i64_i64, int64_t, int64_t)

/* The tail pass over the pending spans, per table kind: the uint8 ones
 * are pending[0..n_u8), the int64 ones the last n_i64 of pending's n_seg
 * entries.  Span s starts at tail_pos[s] from states[s], and its final
 * state replaces that entry. */
static void
run_tails(const void *table, int64_t kind, int64_t n_states,
          const int64_t *seg_ptrs, const int64_t *seg_lens,
          const int64_t *pending, int64_t n_seg, int64_t n_u8, int64_t n_i64,
          const int64_t *tail_pos, int64_t *states)
{
#define TAILS_CALL(FN, TAB_T, PENDING, N_PENDING)                            \
    FN((const TAB_T *)table, n_states, seg_ptrs, seg_lens, PENDING,          \
       N_PENDING, tail_pos, states)
#define TAILS_BY_TABLE(U8_FN, U16_FN, I64_FN, PENDING, N_PENDING)            \
    if (kind == KIND_U8) TAILS_CALL(U8_FN, uint8_t, PENDING, N_PENDING);     \
    else if (kind == KIND_U16)                                               \
        TAILS_CALL(U16_FN, uint16_t, PENDING, N_PENDING);                    \
    else TAILS_CALL(I64_FN, int64_t, PENDING, N_PENDING)
    TAILS_BY_TABLE(tails_u8_u8, tails_u16_u8, tails_i64_u8, pending, n_u8);
    TAILS_BY_TABLE(tails_u8_i64, tails_u16_i64, tails_i64_i64,
                   pending + n_seg - n_i64, n_i64);
#undef TAILS_BY_TABLE
#undef TAILS_CALL
}

/* 1 when some symbol is outside [0, alphabet); branch-free so it
 * vectorizes */
#define DEFINE_RANGE_CHECK(NAME, SYM_T)                                      \
static int                                                                   \
NAME(const SYM_T *syms, int64_t len, uint64_t alphabet)                      \
{                                                                            \
    int64_t t;                                                               \
    int bad = 0;                                                             \
    for (t = 0; t < len; t++)                                                \
        bad |= (uint64_t)(int64_t)syms[t] >= alphabet;                       \
    return bad;                                                              \
}

DEFINE_RANGE_CHECK(out_of_range_u8, uint8_t)
DEFINE_RANGE_CHECK(out_of_range_i64, int64_t)

/* Run every segment's enumeration frontier.
 *
 * table        raveled (alphabet x n_states) transition table, dtype per kind
 * kind         KIND_U8 / KIND_U16 / KIND_I64
 * seg_ptrs     n_seg segment base addresses, each read at its own width
 * seg_lens     n_seg segment lengths
 * seg_kinds    n_seg symbol kinds (KIND_U8 or KIND_I64)
 * init         frontier start states (CS blocks concatenated), width lanes
 * cs_starts    per-CS lane offset into the frontier, n_blocks entries
 * cs_sizes     per-CS lane count, n_blocks entries
 * stride       pinned collapse-check gap, or <=0 for adaptive
 * final_out    (n_seg x width) int64 final frontiers (rows of segments
 *              that did not fully collapse)
 * collapsed_out  per segment: final scalar state if the whole frontier
 *              collapsed, else -1 (holds the tail's start state while the
 *              tail is pending)
 * stats_out    STAT_SLOTS int64 counters
 * active_scratch, slot_scratch, remap_scratch  width int64 entries each
 * stamp_scratch  n_states int64 entries, all -1 (left all -1)
 * seen_scratch n_blocks bytes (per-segment fresh-collapse memory)
 * tail_scratch n_seg int64 entries: each collapsed segment's tail start
 * pending_scratch  n_seg int64 entries: the ids of collapsed segments,
 *              uint8 ones from the front, int64 ones from the back
 *
 * Int64 segments, and uint8 segments when alphabet < 256, are range
 * checked before they are read: the check guards the table reads, while
 * the caller's input contract (repro.ingest.admit) decides what input is
 * acceptable.  Returns WALK_DONE, WALK_BAD_SYMBOL on a symbol outside
 * [0, alphabet), or WALK_BAD_KIND on an unknown table or symbol kind or
 * a state outside [0, n_states).
 */
int64_t
cse_native_scan(const void *table, int64_t kind, int64_t n_states,
                int64_t alphabet, const int64_t *seg_ptrs,
                const int64_t *seg_lens, const int64_t *seg_kinds,
                int64_t n_seg, const int64_t *init, int64_t width,
                const int64_t *cs_starts, const int64_t *cs_sizes,
                int64_t n_blocks, int64_t stride,
                int64_t *final_out, int64_t *collapsed_out, int64_t *stats_out,
                int64_t *active_scratch, int64_t *slot_scratch,
                int64_t *remap_scratch, int64_t *stamp_scratch,
                uint8_t *seen_scratch, int64_t *tail_scratch,
                int64_t *pending_scratch)
{
    const uint64_t a = (uint64_t)alphabet;
    struct frontier f;
    int64_t s, i, n_u8 = 0, n_i64 = 0;
    if (kind != KIND_U8 && kind != KIND_U16 && kind != KIND_I64)
        return WALK_BAD_KIND;
    for (i = 0; i < width; i++)
        if ((uint64_t)init[i] >= (uint64_t)n_states)
            return WALK_BAD_KIND;
    for (i = 0; i < STAT_SLOTS; i++)
        stats_out[i] = 0;
    f.active = active_scratch;
    f.slot = slot_scratch;
    f.remap = remap_scratch;
    f.stamp = stamp_scratch;
    f.width = width;
    f.n_states = n_states;
    f.cs_starts = cs_starts;
    f.cs_sizes = cs_sizes;
    f.n_blocks = n_blocks;
    f.seen = seen_scratch;
    for (s = 0; s < n_seg; s++) {
        const void *syms = (const void *)(intptr_t)seg_ptrs[s];
        const int64_t len = seg_lens[s], sym_kind = seg_kinds[s];
        int64_t rc, j;
        if (sym_kind == KIND_U8) {
            if (alphabet < 256
                    && out_of_range_u8((const uint8_t *)syms, len, a))
                return WALK_BAD_SYMBOL;
        } else if (sym_kind == KIND_I64) {
            if (out_of_range_i64((const int64_t *)syms, len, a))
                return WALK_BAD_SYMBOL;
        } else {
            return WALK_BAD_KIND;
        }
        for (j = 0; j < width; j++) {
            f.active[j] = init[j];
            f.slot[j] = j;
        }
        for (j = 0; j < n_blocks; j++)
            f.seen[j] = 0;
        f.m = width;
        f.merged = 1;
#define SCAN_CALL(FN, TAB_T, SYM_T)                                          \
        rc = FN((const TAB_T *)table, (const SYM_T *)syms, len, stride, &f,  \
                stats_out, &tail_scratch[s], &collapsed_out[s])
        if (sym_kind == KIND_U8) {
            if (kind == KIND_U8) SCAN_CALL(frontier_u8_u8, uint8_t, uint8_t);
            else if (kind == KIND_U16)
                SCAN_CALL(frontier_u16_u8, uint16_t, uint8_t);
            else SCAN_CALL(frontier_i64_u8, int64_t, uint8_t);
        } else {
            if (kind == KIND_U8) SCAN_CALL(frontier_u8_i64, uint8_t, int64_t);
            else if (kind == KIND_U16)
                SCAN_CALL(frontier_u16_i64, uint16_t, int64_t);
            else SCAN_CALL(frontier_i64_i64, int64_t, int64_t);
        }
#undef SCAN_CALL
        if (rc != WALK_DONE)
            return rc;
        if (collapsed_out[s] >= 0) {
            if (sym_kind == KIND_U8)
                pending_scratch[n_u8++] = s;
            else
                pending_scratch[n_seg - ++n_i64] = s;
        } else {
            int64_t *dst = final_out + s * width;
            for (j = 0; j < width; j++)
                dst[j] = f.active[f.slot[j]];
        }
    }
    run_tails(table, kind, n_states, seg_ptrs, seg_lens, pending_scratch,
              n_seg, n_u8, n_i64, tail_scratch, collapsed_out);
    return WALK_DONE;
}

/* Walk n_seg independent spans, each from its own start state.
 *
 * table        raveled (alphabet x n_states) transition table, per kind
 * kind         KIND_U8 / KIND_U16 / KIND_I64
 * seg_ptrs     n_seg span base addresses, each read at its own width
 * seg_lens     n_seg span lengths
 * seg_kinds    n_seg symbol kinds (KIND_U8 or KIND_I64)
 * states_io    in: each span's start state; out: its final state
 * pos_scratch  n_seg int64 entries (the tail pass's start positions)
 * pending_scratch  n_seg int64 entries: the ids of non-empty spans,
 *              uint8 ones from the front, int64 ones from the back
 *
 * The spans are the tail pass's tails (DEFINE_TAILS), so they are walked
 * TAIL_LANES at a time and their loads overlap.  Every start state is
 * checked to lie in [0, n_states) and every span range checked, int64
 * ones always and uint8 ones when alphabet < 256, before any is read.
 * Returns WALK_DONE, WALK_BAD_SYMBOL on a symbol outside [0, alphabet),
 * or WALK_BAD_KIND on an unknown table or symbol kind or a start state
 * outside the machine.
 */
int64_t
cse_native_walks(const void *table, int64_t kind, int64_t n_states,
                 int64_t alphabet, const int64_t *seg_ptrs,
                 const int64_t *seg_lens, const int64_t *seg_kinds,
                 int64_t n_seg, int64_t *states_io, int64_t *pos_scratch,
                 int64_t *pending_scratch)
{
    const uint64_t a = (uint64_t)alphabet;
    int64_t s, n_u8 = 0, n_i64 = 0;
    if (kind != KIND_U8 && kind != KIND_U16 && kind != KIND_I64)
        return WALK_BAD_KIND;
    for (s = 0; s < n_seg; s++) {
        const void *syms = (const void *)(intptr_t)seg_ptrs[s];
        const int64_t len = seg_lens[s];
        if ((uint64_t)states_io[s] >= (uint64_t)n_states)
            return WALK_BAD_KIND;
        if (seg_kinds[s] == KIND_U8) {
            if (alphabet < 256
                    && out_of_range_u8((const uint8_t *)syms, len, a))
                return WALK_BAD_SYMBOL;
        } else if (seg_kinds[s] == KIND_I64) {
            if (out_of_range_i64((const int64_t *)syms, len, a))
                return WALK_BAD_SYMBOL;
        } else {
            return WALK_BAD_KIND;
        }
        pos_scratch[s] = 0;
        if (len <= 0)
            continue;
        if (seg_kinds[s] == KIND_U8)
            pending_scratch[n_u8++] = s;
        else
            pending_scratch[n_seg - ++n_i64] = s;
    }
    run_tails(table, kind, n_states, seg_ptrs, seg_lens, pending_scratch,
              n_seg, n_u8, n_i64, pos_scratch, states_io);
    return WALK_DONE;
}

/* Widen the first n_cells table entries to int64 — the certification
 * window repro check's K114 compares against the dense tables, proving
 * the compiled library reads the exact bytes the Python tier built. */
int64_t
cse_native_table_view(const void *table, int64_t kind, int64_t n_cells,
                      int64_t *out)
{
    int64_t i;
    if (kind == KIND_U8) {
        const uint8_t *tab = (const uint8_t *)table;
        for (i = 0; i < n_cells; i++)
            out[i] = (int64_t)tab[i];
    } else if (kind == KIND_U16) {
        const uint16_t *tab = (const uint16_t *)table;
        for (i = 0; i < n_cells; i++)
            out[i] = (int64_t)tab[i];
    } else if (kind == KIND_I64) {
        const int64_t *tab = (const int64_t *)table;
        for (i = 0; i < n_cells; i++)
            out[i] = tab[i];
    } else {
        return -1;
    }
    return 0;
}

/* One walk body per (table kind, symbol kind).  The symbol is range
 * checked before it indexes the table: an out-of-range symbol stops the
 * walk at its position with WALK_BAD_SYMBOL. */
#define DEFINE_WALK(NAME, TAB_T, SYM_T)                                      \
static int64_t                                                               \
NAME(const TAB_T *tab, int64_t n_states, uint64_t alphabet,                  \
     const SYM_T *syms, int64_t len, int64_t *pos_io, int64_t *state_io,     \
     const uint8_t *accepting, int64_t *offsets_out, int64_t *states_out,    \
     int64_t cap, int64_t *n_reports_out)                                    \
{                                                                            \
    int64_t t = *pos_io, q = *state_io, n = 0, rc = WALK_DONE;               \
    if (accepting == 0) {                                                    \
        for (; t < len; t++) {                                               \
            const uint64_t c = (uint64_t)(int64_t)syms[t];                   \
            if (c >= alphabet) { rc = WALK_BAD_SYMBOL; break; }              \
            q = (int64_t)tab[(int64_t)c * n_states + q];                     \
        }                                                                    \
    } else {                                                                 \
        for (; t < len; t++) {                                               \
            const uint64_t c = (uint64_t)(int64_t)syms[t];                   \
            if (c >= alphabet) { rc = WALK_BAD_SYMBOL; break; }              \
            q = (int64_t)tab[(int64_t)c * n_states + q];                     \
            if (accepting[q]) {                                              \
                offsets_out[n] = t;                                          \
                states_out[n] = q;                                           \
                if (++n == cap) { t++; rc = WALK_PAUSED; break; }            \
            }                                                                \
        }                                                                    \
    }                                                                        \
    *pos_io = t;                                                             \
    *state_io = q;                                                           \
    *n_reports_out = n;                                                      \
    return rc;                                                               \
}

DEFINE_WALK(walk_u8_u8, uint8_t, uint8_t)
DEFINE_WALK(walk_u16_u8, uint16_t, uint8_t)
DEFINE_WALK(walk_i64_u8, int64_t, uint8_t)
DEFINE_WALK(walk_u8_i64, uint8_t, int64_t)
DEFINE_WALK(walk_u16_i64, uint16_t, int64_t)
DEFINE_WALK(walk_i64_i64, int64_t, int64_t)

/* One concrete walk: state = table[sym * n_states + state] per symbol.
 *
 * table          raveled (alphabet x n_states) transition table, per kind
 * kind           KIND_U8 / KIND_U16 / KIND_I64
 * syms           the symbols, read at their own width
 * sym_kind       KIND_U8 or KIND_I64
 * len            number of symbols
 * pos_io         in: first position to read; out: first position not read
 * state_io       in: state before pos_io; out: state after the last read
 * accepting      n_states bytes, nonzero = report; NULL for no reports
 * offsets_out    cap report positions (relative to syms)
 * states_out     cap report states
 * n_reports_out  reports written by this call
 *
 * Returns WALK_DONE when every symbol was read, WALK_PAUSED when the
 * report buffer filled (resume with the same arguments: pos_io/state_io
 * already point past the last report), WALK_BAD_SYMBOL at a symbol
 * outside [0, alphabet), WALK_BAD_KIND on an unknown kind, cap < 1 or a
 * start state outside [0, n_states).
 */
int64_t
cse_native_walk(const void *table, int64_t kind, int64_t n_states,
                int64_t alphabet, const void *syms, int64_t sym_kind,
                int64_t len, int64_t *pos_io, int64_t *state_io,
                const uint8_t *accepting, int64_t *offsets_out,
                int64_t *states_out, int64_t cap, int64_t *n_reports_out)
{
    const uint64_t a = (uint64_t)alphabet;
    *n_reports_out = 0;
    if (cap < 1 || (uint64_t)*state_io >= (uint64_t)n_states)
        return WALK_BAD_KIND;
#define WALK_CALL(FN, TAB_T, SYM_T)                                          \
    return FN((const TAB_T *)table, n_states, a, (const SYM_T *)syms, len,   \
              pos_io, state_io, accepting, offsets_out, states_out, cap,     \
              n_reports_out)
    if (sym_kind == KIND_U8) {
        if (kind == KIND_U8) WALK_CALL(walk_u8_u8, uint8_t, uint8_t);
        if (kind == KIND_U16) WALK_CALL(walk_u16_u8, uint16_t, uint8_t);
        if (kind == KIND_I64) WALK_CALL(walk_i64_u8, int64_t, uint8_t);
    } else if (sym_kind == KIND_I64) {
        if (kind == KIND_U8) WALK_CALL(walk_u8_i64, uint8_t, int64_t);
        if (kind == KIND_U16) WALK_CALL(walk_u16_i64, uint16_t, int64_t);
        if (kind == KIND_I64) WALK_CALL(walk_i64_i64, int64_t, int64_t);
    }
#undef WALK_CALL
    return WALK_BAD_KIND;
}

/* Locate the rightmost run of skip_width non-anchor symbols, scanning
 * backward from the end.  *walk_from_out is the position just past that
 * run (the tail to walk from home starts there), or -1 when no run
 * qualifies.  With check set, every symbol of the segment, the erased
 * prefix included, is range checked (a symbol indexes the LUT only after
 * its check): WALK_BAD_SYMBOL on a symbol outside [0, alphabet). */
#define DEFINE_RESET_SCAN(NAME, SYM_T)                                       \
static int64_t                                                               \
NAME(const SYM_T *syms, int64_t len, const uint8_t *lut, uint64_t alphabet,  \
     int check, int64_t skip_width, int64_t *walk_from_out)                  \
{                                                                            \
    int64_t t, run = 0, found = -1;                                          \
    for (t = len - 1; t >= 0; t--) {                                         \
        const uint64_t c = (uint64_t)(int64_t)syms[t];                       \
        if (check && c >= alphabet) return WALK_BAD_SYMBOL;                  \
        /* branch-free count: anchors are dense exactly where it matters */  \
        run = (run + 1) & -(int64_t)(lut[c] == 0);                           \
        if (run == skip_width) {                                             \
            found = t + skip_width;                                          \
            break;                                                           \
        }                                                                    \
    }                                                                        \
    if (check)                                                               \
        for (t--; t >= 0; t--)                                               \
            if ((uint64_t)(int64_t)syms[t] >= alphabet)                      \
                return WALK_BAD_SYMBOL;                                      \
    *walk_from_out = found;                                                  \
    return WALK_DONE;                                                        \
}

DEFINE_RESET_SCAN(reset_scan_u8, uint8_t)
DEFINE_RESET_SCAN(reset_scan_i64, int64_t)

/* The literal prefilter over a batch of segments.
 *
 * table          raveled (alphabet x n_states) transition table, per kind
 * kind           KIND_U8 / KIND_U16 / KIND_I64
 * anchor_lut     alphabet bytes, nonzero = anchor symbol
 * home           the state every skip_width-long non-anchor run ends in
 * seg_ptrs       n_seg segment base addresses, each read at its own width
 * seg_lens       n_seg segment lengths
 * seg_kinds      n_seg symbol kinds (KIND_U8 or KIND_I64)
 * starts         n_seg start states; -1 marks an enumerative segment
 * final_out      per segment: the final state, or -1 for an enumerative
 *                segment with no qualifying run (the caller runs its
 *                frontier)
 * walk_from_out  per segment: where the tail walk from home began (the
 *                prefix before it is erased), or -1 with no qualifying run
 *
 * A segment without a qualifying run and with a start state is walked
 * whole from that state.  Returns WALK_DONE, WALK_BAD_SYMBOL when any
 * symbol of any segment is outside [0, alphabet), or WALK_BAD_KIND on an
 * unknown kind, a start state outside the machine or skip_width < 1.
 */
int64_t
cse_native_prefilter(const void *table, int64_t kind, int64_t n_states,
                     int64_t alphabet, const uint8_t *anchor_lut,
                     int64_t home, int64_t skip_width,
                     const int64_t *seg_ptrs, const int64_t *seg_lens,
                     const int64_t *seg_kinds, int64_t n_seg,
                     const int64_t *starts, int64_t *final_out,
                     int64_t *walk_from_out)
{
    const uint64_t a = (uint64_t)alphabet;
    int64_t s;
    if (skip_width < 1 || home < 0 || home >= n_states)
        return WALK_BAD_KIND;
    for (s = 0; s < n_seg; s++) {
        const void *syms = (const void *)(intptr_t)seg_ptrs[s];
        const int64_t len = seg_lens[s], sym_kind = seg_kinds[s];
        int64_t walk_from = -1, pos, state, n_reports, rc;
        if (starts[s] < -1 || starts[s] >= n_states)
            return WALK_BAD_KIND;
        if (sym_kind == KIND_U8)
            rc = reset_scan_u8((const uint8_t *)syms, len, anchor_lut, a,
                               alphabet < 256, skip_width, &walk_from);
        else if (sym_kind == KIND_I64)
            rc = reset_scan_i64((const int64_t *)syms, len, anchor_lut, a,
                                1, skip_width, &walk_from);
        else
            return WALK_BAD_KIND;
        if (rc != WALK_DONE)
            return rc;
        walk_from_out[s] = walk_from;
        if (walk_from < 0 && starts[s] < 0) {
            final_out[s] = -1;
            continue;
        }
        pos = walk_from < 0 ? 0 : walk_from;
        state = walk_from < 0 ? starts[s] : home;
        rc = cse_native_walk(table, kind, n_states, alphabet, syms, sym_kind,
                             len, &pos, &state, 0, 0, 0, 1, &n_reports);
        if (rc != WALK_DONE)
            return rc;
        final_out[s] = state;
    }
    return WALK_DONE;
}

/* A round with all TAIL_LANES lanes busy, their states in locals: no
 * lane's state goes through memory between positions.  Returns the
 * position it stopped at: run, or the first position where some lane's
 * entry is outside [0, last], which the caller's general loop redoes
 * (states are written back as of the position before it). */
#define LANE_STEP(J)                                                         \
    n##J = tab[q##J + (int64_t)s##J[t]]
#define DEFINE_FULL_ROUND(NAME, SYM_T)                                       \
static int64_t                                                               \
NAME(const int32_t *tab, uint64_t last, const SYM_T *const *sym,             \
     int64_t *q, int64_t run)                                                \
{                                                                            \
    const SYM_T *s0 = sym[0], *s1 = sym[1], *s2 = sym[2], *s3 = sym[3];      \
    const SYM_T *s4 = sym[4], *s5 = sym[5], *s6 = sym[6], *s7 = sym[7];      \
    int64_t q0 = q[0], q1 = q[1], q2 = q[2], q3 = q[3];                      \
    int64_t q4 = q[4], q5 = q[5], q6 = q[6], q7 = q[7];                      \
    int64_t t;                                                               \
    for (t = 0; t < run; t++) {                                              \
        int64_t n0, n1, n2, n3, n4, n5, n6, n7;                              \
        LANE_STEP(0); LANE_STEP(1); LANE_STEP(2); LANE_STEP(3);              \
        LANE_STEP(4); LANE_STEP(5); LANE_STEP(6); LANE_STEP(7);              \
        if ((uint64_t)n0 > last || (uint64_t)n1 > last                       \
                || (uint64_t)n2 > last || (uint64_t)n3 > last                \
                || (uint64_t)n4 > last || (uint64_t)n5 > last                \
                || (uint64_t)n6 > last || (uint64_t)n7 > last)               \
            break;                                                           \
        q0 = n0; q1 = n1; q2 = n2; q3 = n3;                                  \
        q4 = n4; q5 = n5; q6 = n6; q7 = n7;                                  \
    }                                                                        \
    q[0] = q0; q[1] = q1; q[2] = q2; q[3] = q3;                              \
    q[4] = q4; q[5] = q5; q[6] = q6; q[7] = q7;                              \
    return t;                                                                \
}

/* Walk lanes over a row-offset table, per symbol kind.  order holds
 * n_order lane ids; lane s reads seg_ptrs[s] from pos_io[s] to
 * seg_lens[s] starting at row offset state_io[s], and both are written
 * back when it ends or pauses.  The rounds are DEFINE_TAILS's: every busy
 * lane steps by the shortest remaining span, with all TAIL_LANES lanes
 * busy in registers (DEFINE_FULL_ROUND).  An entry outside [0, last] ends
 * the round after its position: a negative one pauses its lane on the
 * symbol it could not take (that lane steps one position less), a too
 * large one is a table that cannot be trusted.  Returns the number of
 * paused lanes, or WALK_BAD_KIND. */
#define DEFINE_LANES(NAME, FULL, SYM_T)                                      \
static int64_t                                                               \
NAME(const int32_t *tab, uint64_t last, const int64_t *seg_ptrs,             \
     const int64_t *seg_lens, const int64_t *order, int64_t n_order,         \
     int64_t *pos_io, int64_t *state_io)                                     \
{                                                                            \
    const SYM_T *sym[TAIL_LANES];                                            \
    int64_t q[TAIL_LANES], left[TAIL_LANES], lane[TAIL_LANES];               \
    int held[TAIL_LANES];                                                    \
    int64_t next = 0, live = 0, paused = 0, run, t, i;                       \
    for (;;) {                                                               \
        while (live < TAIL_LANES && next < n_order) {                        \
            const int64_t s = order[next++];                                 \
            if (pos_io[s] >= seg_lens[s])                                    \
                continue;                                                    \
            sym[live] = (const SYM_T *)(intptr_t)seg_ptrs[s] + pos_io[s];    \
            left[live] = seg_lens[s] - pos_io[s];                            \
            q[live] = state_io[s];                                           \
            held[live] = 0;                                                  \
            lane[live++] = s;                                                \
        }                                                                    \
        if (live == 0)                                                       \
            return paused;                                                   \
        run = left[0];                                                       \
        for (i = 1; i < live; i++)                                           \
            if (left[i] < run)                                               \
                run = left[i];                                               \
        t = live == TAIL_LANES ? FULL(tab, last, sym, q, run) : 0;           \
        for (; t < run; t++)                                                 \
            for (i = 0; i < live; i++) {                                     \
                const int64_t nq = tab[q[i] + (int64_t)sym[i][t]];           \
                if ((uint64_t)nq > last) {                                   \
                    if (nq >= 0)                                             \
                        return WALK_BAD_KIND;                                \
                    held[i] = 1;                                             \
                    run = t + 1;                                             \
                    continue;                                                \
                }                                                            \
                q[i] = nq;                                                   \
            }                                                                \
        for (i = 0; i < live;) {                                             \
            const int64_t step = held[i] ? run - 1 : run;                    \
            sym[i] += step;                                                  \
            left[i] -= step;                                                 \
            if (!held[i] && left[i] > 0) {                                   \
                i++;                                                         \
                continue;                                                    \
            }                                                                \
            /* ended or paused: the last busy lane moves into its place */   \
            pos_io[lane[i]] = seg_lens[lane[i]] - left[i];                   \
            state_io[lane[i]] = q[i];                                        \
            paused += held[i];                                               \
            live--;                                                          \
            sym[i] = sym[live];                                              \
            left[i] = left[live];                                            \
            q[i] = q[live];                                                  \
            held[i] = held[live];                                            \
            lane[i] = lane[live];                                            \
        }                                                                    \
    }                                                                        \
}

DEFINE_FULL_ROUND(full_u8, uint8_t)
DEFINE_FULL_ROUND(full_i64, int64_t)
DEFINE_LANES(lanes_u8, full_u8, uint8_t)
DEFINE_LANES(lanes_i64, full_i64, int64_t)

/* Walk k lanes over one state-major int32 table.
 *
 * table          n_rows x alphabet int32 entries, row-major; entry
 *                [r, c] is the row offset r' * alphabet of the row after
 *                symbol c from row r, or negative for a row not built yet
 * seg_ptrs       n_lanes span base addresses, each read at its own width
 * seg_lens       n_lanes span lengths
 * seg_kinds      n_lanes symbol kinds (KIND_U8 or KIND_I64)
 * check          nonzero: range check each lane's unread span first; a
 *                call resuming spans an earlier call checked passes 0
 * pos_io         in: each lane's first position to read; out: where it
 *                stopped (seg_lens[s] once it ended)
 * state_io       in: each lane's row offset before pos_io; out: its row
 *                offset there
 * order_scratch  n_lanes int64 entries: the lane ids, uint8 ones from the
 *                front, int64 ones from the back
 *
 * Row offsets rather than row ids keep a multiply off each lane's chain
 * of dependent loads.  With check set, each lane's unread span is range
 * checked before it is read, int64 ones always and uint8 ones when
 * alphabet < 256; resuming calls skip it, since a growing scan resumes
 * once per row it builds.
 * Returns the number of lanes that paused on a negative entry (0: every
 * lane ended), WALK_BAD_SYMBOL on a symbol outside [0, alphabet), or
 * WALK_BAD_KIND on an unknown symbol kind, a table past int32 offsets,
 * or a row offset (given or read) past the last row.
 */
int64_t
cse_native_lanes(const int32_t *table, int64_t n_rows, int64_t alphabet,
                 const int64_t *seg_ptrs, const int64_t *seg_lens,
                 const int64_t *seg_kinds, int64_t n_lanes, int64_t check,
                 int64_t *pos_io, int64_t *state_io, int64_t *order_scratch)
{
    const uint64_t a = (uint64_t)alphabet;
    uint64_t last;
    int64_t s, n_u8 = 0, n_i64 = 0, rc, paused;
    if (n_rows < 1 || alphabet < 1 || n_rows > INT32_MAX / alphabet)
        return WALK_BAD_KIND;
    last = (uint64_t)(n_rows - 1) * a;
    for (s = 0; s < n_lanes; s++) {
        const int64_t pos = pos_io[s], len = seg_lens[s];
        if ((uint64_t)state_io[s] > last || pos < 0)
            return WALK_BAD_KIND;
        if (pos >= len)
            continue;
        if (seg_kinds[s] == KIND_U8) {
            if (check && alphabet < 256 && out_of_range_u8(
                    (const uint8_t *)(intptr_t)seg_ptrs[s] + pos, len - pos,
                    a))
                return WALK_BAD_SYMBOL;
            order_scratch[n_u8++] = s;
        } else if (seg_kinds[s] == KIND_I64) {
            if (check && out_of_range_i64(
                    (const int64_t *)(intptr_t)seg_ptrs[s] + pos, len - pos,
                    a))
                return WALK_BAD_SYMBOL;
            order_scratch[n_lanes - ++n_i64] = s;
        } else {
            return WALK_BAD_KIND;
        }
    }
    paused = lanes_u8(table, last, seg_ptrs, seg_lens, order_scratch, n_u8,
                      pos_io, state_io);
    if (paused < 0)
        return paused;
    rc = lanes_i64(table, last, seg_ptrs, seg_lens,
                   order_scratch + n_lanes - n_i64, n_i64, pos_io, state_io);
    return rc < 0 ? rc : paused + rc;
}
