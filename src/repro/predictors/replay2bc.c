/* 2Bc-gskew batched replay: predict-then-train over precomputed indices.
 *
 * The compiled counterpart of TwoBcGskewPredictor._train_partial and
 * _train_total (Section 4.2) composed with the SplitCounterArray
 * transitions, over the four banks' raw prediction (p) and hysteresis (h)
 * byte arrays.  Indices arrive masked to each prediction table; a
 * hysteresis index is the prediction index masked by its table's
 * hysteresis mask (Section 4.4 sharing).  The differential fuzzer
 * (tests/test_differential.py) holds it bit-identical to the scalar walk.
 * Built on first use by repro.predictors.native.
 */
#include <stdint.h>

/* SplitCounterArray._step_towards: strengthen when the direction already
 * agrees, else weaken, else flip the direction (staying weak). */
#define STEP(p, h, i, hi, t)          \
    do {                              \
        if ((p)[i] == (t))            \
            (h)[hi] = 1;              \
        else if ((h)[hi])             \
            (h)[hi] = 0;              \
        else                          \
            (p)[i] = (t);             \
    } while (0)

void replay2bc(int64_t n, const int64_t *bim_idx, const int64_t *g0_idx,
               const int64_t *g1_idx, const int64_t *meta_idx,
               const uint8_t *takens,
               uint8_t *bp, uint8_t *bh, uint8_t *p0, uint8_t *h0,
               uint8_t *p1, uint8_t *h1, uint8_t *mp, uint8_t *mh,
               int64_t bhm, int64_t g0hm, int64_t g1hm, int64_t mhm,
               int partial, uint8_t *out)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t bi = bim_idx[k], g0i = g0_idx[k], g1i = g1_idx[k];
        int64_t mi = meta_idx[k];
        uint8_t t = takens[k] != 0;
        uint8_t p_b = bp[bi], p_0 = p0[g0i], p_1 = p1[g1i], um = mp[mi];
        uint8_t maj = (p_b + p_0 + p_1) >= 2;
        uint8_t ov = um ? maj : p_b;
        out[k] = ov;
        if (!partial) {
            if (p_b != maj)
                STEP(mp, mh, mi, mi & mhm, maj == t);
            STEP(bp, bh, bi, bi & bhm, t);
            STEP(p0, h0, g0i, g0i & g0hm, t);
            STEP(p1, h1, g1i, g1i & g1hm, t);
            continue;
        }
        if (ov == t) {
            if (p_b == p_0 && p_0 == p_1)
                continue; /* Rationale 1: leave the counters stealable */
            if (p_b != maj)
                STEP(mp, mh, mi, mi & mhm, maj == t);
            if (um) {
                if (p_b == t) bh[bi & bhm] = 1;
                if (p_0 == t) h0[g0i & g0hm] = 1;
                if (p_1 == t) h1[g1i & g1hm] = 1;
            } else {
                bh[bi & bhm] = 1;
            }
            continue;
        }
        /* Misprediction. */
        if (p_b != maj) {
            STEP(mp, mh, mi, mi & mhm, maj == t);
            if (mp[mi]) { /* the chooser re-read (peek) after its update */
                if (maj == t) {
                    if (p_b == t) bh[bi & bhm] = 1;
                    if (p_0 == t) h0[g0i & g0hm] = 1;
                    if (p_1 == t) h1[g1i & g1hm] = 1;
                    continue;
                }
            } else if (p_b == t) {
                bh[bi & bhm] = 1;
                continue;
            }
        }
        STEP(bp, bh, bi, bi & bhm, t);
        STEP(p0, h0, g0i, g0i & g0hm, t);
        STEP(p1, h1, g1i, g1i & g1hm, t);
    }
}
