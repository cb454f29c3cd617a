/* Native set-flow tier: the dense-frontier kernel as one compiled call,
 * plus the concrete walk every serial step of a scan runs on.
 *
 * The dense kernel (dense.py) already reduced a symbol position to one
 * offset-add + one flat gather, but each position still pays a Python
 * dispatch and full-generality numpy machinery.  This library advances a
 * whole segment's enumeration frontier over its entire symbol buffer in
 * one C loop: per position a fused offset-add + gather at the narrowed
 * table dtype, a strided collapse check every K positions (adaptive K,
 * same STRIDE_MIN/STRIDE_MAX ladder as dense.py — correctness is
 * stride-independent because the outcomes are derived from the final
 * frontier), and when the *whole* frontier collapses to one state the
 * segment degrades to a single scalar table walk for its remaining tail.
 *
 * cse_native_walk is the other half: one concrete walk from a start
 * state (segment 0, global re-execution, a matcher's report pass).  It
 * reads symbols at their own width (uint8 or int64) and collects
 * (offset, state) reports into a caller-sized buffer, pausing when the
 * buffer fills and resuming on the next call.
 *
 * cse_native_prefilter is the literal prefilter (prefilter.py) for a
 * batch of segments: a backward scan per segment to its rightmost run of
 * skip_width non-anchor symbols (a proven reset to home), then the walk
 * of only the tail after that run.
 *
 * Deliberately plain C with a flat pointer ABI: no Python.h, no numpy
 * headers.  The Python side (native.py) loads it through ctypes, passes
 * preallocated numpy buffers, and reuses dense.py's epilogue verbatim so
 * outcomes stay bit-identical to every other backend.
 */

#include <stdint.h>

/* bump when the entry-point signatures change; native.py refuses to use
 * a library whose cse_native_abi() disagrees */
#define CSE_NATIVE_ABI 3

/* same adaptive collapse-check ladder as dense.py */
#define NATIVE_STRIDE_MIN 8
#define NATIVE_STRIDE_MAX 512

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
#define STAT_SLOTS 4

/* cse_native_walk return codes (must match _WALK_* in native.py) */
#define WALK_DONE 0
#define WALK_PAUSED 1
#define WALK_BAD_KIND -1
#define WALK_BAD_SYMBOL -2

int64_t cse_native_abi(void) { return CSE_NATIVE_ABI; }

/* advance every frontier lane through symbol column `col` */
static void
advance(const void *table, int64_t kind, int64_t col_off,
        int64_t *frontier, int64_t width)
{
    int64_t j;
    if (kind == KIND_U8) {
        const uint8_t *col = (const uint8_t *)table + col_off;
        for (j = 0; j < width; j++)
            frontier[j] = (int64_t)col[frontier[j]];
    } else if (kind == KIND_U16) {
        const uint16_t *col = (const uint16_t *)table + col_off;
        for (j = 0; j < width; j++)
            frontier[j] = (int64_t)col[frontier[j]];
    } else {
        const int64_t *col = (const int64_t *)table + col_off;
        for (j = 0; j < width; j++)
            frontier[j] = col[frontier[j]];
    }
}

/* walk one scalar flow over syms[from:len] (a collapsed segment's tail) */
static int64_t
walk_scalar(const void *table, int64_t kind, int64_t n_states,
            const int64_t *syms, int64_t from, int64_t len, int64_t state)
{
    int64_t t;
    if (kind == KIND_U8) {
        const uint8_t *tab = (const uint8_t *)table;
        for (t = from; t < len; t++)
            state = (int64_t)tab[syms[t] * n_states + state];
    } else if (kind == KIND_U16) {
        const uint16_t *tab = (const uint16_t *)table;
        for (t = from; t < len; t++)
            state = (int64_t)tab[syms[t] * n_states + state];
    } else {
        const int64_t *tab = (const int64_t *)table;
        for (t = from; t < len; t++)
            state = tab[syms[t] * n_states + state];
    }
    return state;
}

/* Run every segment's full dense frontier.
 *
 * table        raveled (alphabet x n_states) transition table, dtype per kind
 * kind         KIND_U8 / KIND_U16 / KIND_I64
 * syms         all segments' symbols concatenated, int64, validated in-range
 * seg_starts   n_seg+1 prefix offsets into syms
 * init         frontier start states (CS blocks concatenated), width lanes
 * cs_starts    per-CS lane offset into the frontier, n_blocks entries
 * cs_sizes     per-CS lane count, n_blocks entries
 * stride       pinned collapse-check gap, or <=0 for adaptive
 * final_out    (n_seg x width) int64 final frontiers (rows of segments
 *              that did not fully collapse)
 * collapsed_out  per segment: final scalar state if the whole frontier
 *              collapsed, else -1
 * stats_out    STAT_SLOTS int64 counters
 * frontier_scratch  width int64 working lanes
 * seen_scratch n_blocks bytes (per-segment fresh-collapse memory)
 *
 * Returns 0, or -1 on an unknown table kind.
 */
int64_t
cse_native_scan(const void *table, int64_t kind, int64_t n_states,
                const int64_t *syms, const int64_t *seg_starts, int64_t n_seg,
                const int64_t *init, int64_t width,
                const int64_t *cs_starts, const int64_t *cs_sizes,
                int64_t n_blocks, int64_t stride,
                int64_t *final_out, int64_t *collapsed_out, int64_t *stats_out,
                int64_t *frontier_scratch, uint8_t *seen_scratch)
{
    int64_t s, i;
    if (kind != KIND_U8 && kind != KIND_U16 && kind != KIND_I64)
        return -1;
    for (i = 0; i < STAT_SLOTS; i++)
        stats_out[i] = 0;
    for (s = 0; s < n_seg; s++) {
        const int64_t *seg = syms + seg_starts[s];
        const int64_t len = seg_starts[s + 1] - seg_starts[s];
        int64_t *fr = frontier_scratch;
        int64_t k = stride > 0 ? stride : NATIVE_STRIDE_MIN;
        int64_t next_check = k;
        int64_t scalar = -1;
        int64_t t, b, j;
        for (j = 0; j < width; j++)
            fr[j] = init[j];
        for (b = 0; b < n_blocks; b++)
            seen_scratch[b] = 0;
        for (t = 0; t < len; t++) {
            advance(table, kind, seg[t] * n_states, fr, width);
            stats_out[STAT_NATIVE_POSITIONS]++;
            if (width > 0 && t + 1 >= next_check) {
                int64_t gmin = fr[0], gmax = fr[0];
                int fresh = 0;
                stats_out[STAT_STRIDE_CHECKS]++;
                for (b = 0; b < n_blocks; b++) {
                    const int64_t lo = cs_starts[b];
                    const int64_t hi = lo + cs_sizes[b];
                    int64_t mn = fr[lo], mx = fr[lo];
                    for (j = lo + 1; j < hi; j++) {
                        const int64_t v = fr[j];
                        if (v < mn) mn = v;
                        if (v > mx) mx = v;
                    }
                    if (mn == mx && !seen_scratch[b]) {
                        seen_scratch[b] = 1;
                        fresh = 1;
                    }
                    if (mn < gmin) gmin = mn;
                    if (mx > gmax) gmax = mx;
                }
                if (gmin == gmax) {
                    /* whole frontier is one state: every enumeration
                     * path is the same path — finish as one scalar flow */
                    stats_out[STAT_DEGRADED]++;
                    stats_out[STAT_SCALAR_POSITIONS] += len - (t + 1);
                    scalar = walk_scalar(table, kind, n_states,
                                         seg, t + 1, len, gmin);
                    break;
                }
                if (stride <= 0)
                    k = fresh ? NATIVE_STRIDE_MIN
                              : (k * 2 > NATIVE_STRIDE_MAX
                                     ? NATIVE_STRIDE_MAX : k * 2);
                next_check = t + 1 + k;
            }
        }
        collapsed_out[s] = scalar;
        if (scalar < 0) {
            int64_t *dst = final_out + s * width;
            for (j = 0; j < width; j++)
                dst[j] = fr[j];
        }
    }
    return 0;
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
 * walk at its position with WALK_BAD_SYMBOL and the caller replays the
 * input on the interpreted walk, whose behaviour on such input is the
 * reference. */
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
 * outside [0, alphabet), WALK_BAD_KIND on an unknown kind or cap < 1.
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
    if (cap < 1)
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
 * its check): WALK_BAD_SYMBOL on a symbol outside [0, alphabet), and the
 * caller replays the batch interpreted. */
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
