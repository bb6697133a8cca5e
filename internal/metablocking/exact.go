// Exact edge-weight accumulation for the mean-threshold pruners.
//
// WEP keeps an edge when its weight reaches the global mean, WNP when it
// reaches a neighborhood mean. Floating-point summation makes those means
// order-sensitive in their last ulp, which is fatal for the streaming
// resolver's delta reconcile: the batch pruner sums a sorted edge list from
// scratch while the incremental pruner adds and subtracts weights in stream
// order, and an edge sitting within an ulp of the mean would be kept by one
// regime and dropped by the other. The fix is to make the mean EXACT and
// therefore order-independent: every float64 weight is an integer multiple
// of 2^-1126 (the smallest subnormal is 2^-1074 with a 53-bit mantissa), so
// a big.Int accumulator of weights scaled by 2^1126 carries the sum with no
// rounding at all, additions and subtractions commute exactly, and both
// regimes derive bit-identical pruning fates from identical statistics.
//
// The fate test w >= sum/n never divides: the correctly rounded threshold
// t = RN(sum/n) settles every edge with w != t by float comparison (RN is
// the nearest float64 to the mean, so w > t implies w > mean and w < t
// implies w < mean — see keepAtLeastMean), and the rare tie w == t falls
// back to the all-integer comparison scaled(w)·n >= sum.
package metablocking

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// weightScaleBits is the fixed-point scale: every finite non-negative
// float64 times 2^weightScaleBits is an integer (mantissa 53 bits, minimum
// subnormal exponent -1074; Frexp's fraction adds at most 53 more bits
// below the exponent, and -1073-53+1126 = 0 keeps the shift non-negative).
const weightScaleBits = 1126

// scaleWeight writes w * 2^weightScaleBits into dst. w must be finite and
// non-negative — true for every streaming weight scheme (CBS and JS are
// ratios of counts, ECBS multiplies CBS by log(|B|/|B_x|) >= 0).
func scaleWeight(w float64, dst *big.Int) *big.Int {
	if w == 0 {
		return dst.SetInt64(0)
	}
	fr, exp := math.Frexp(w) // w = fr · 2^exp, |fr| ∈ [0.5, 1)
	m := int64(fr * (1 << 53))
	dst.SetInt64(m)
	return dst.Lsh(dst, uint(exp-53+weightScaleBits))
}

// exactSum accumulates float64 weights exactly. The zero value is an empty
// sum; Add and Sub commute and cancel exactly, so any arrival order of the
// same multiset of weights leaves the same accumulator state.
type exactSum struct {
	acc     big.Int
	scratch big.Int
}

// Add folds w into the sum.
func (s *exactSum) Add(w float64) {
	if w == 0 {
		return
	}
	s.acc.Add(&s.acc, scaleWeight(w, &s.scratch))
}

// Sub removes w from the sum.
func (s *exactSum) Sub(w float64) {
	if w == 0 {
		return
	}
	s.acc.Sub(&s.acc, scaleWeight(w, &s.scratch))
}

// IsZero reports an empty (all contributions cancelled) sum.
func (s *exactSum) IsZero() bool { return s.acc.Sign() == 0 }

// Reset empties the sum.
func (s *exactSum) Reset() { s.acc.SetInt64(0) }

// Mean returns the correctly rounded float64 nearest to sum/n. n must be
// positive.
func (s *exactSum) Mean(n int) float64 {
	den := new(big.Int).SetInt64(int64(n))
	den.Lsh(den, weightScaleBits)
	f, _ := new(big.Rat).SetFrac(&s.acc, den).Float64()
	return f
}

// atLeastMean reports w >= sum/n exactly: scaled(w)·n >= scaled sum.
func (s *exactSum) atLeastMean(w float64, n int) bool {
	lhs := scaleWeight(w, new(big.Int))
	lhs.Mul(lhs, big.NewInt(int64(n)))
	return lhs.Cmp(&s.acc) >= 0
}

// keepAtLeastMean decides w >= sum/n given thr = s.Mean(n), without big
// arithmetic off the tie. Correctness of the fast paths: thr is the nearest
// float64 to mean = sum/n, and w is itself a float64, so the nearest float
// to mean can never sit on the far side of w — w >= mean forces thr <= w,
// and w < mean forces thr >= w. Contrapositively w > thr implies w > mean
// (keep) and w < thr implies w < mean (drop); only w == thr needs the exact
// integer comparison.
func (s *exactSum) keepAtLeastMean(w, thr float64, n int) bool {
	if w > thr {
		return true
	}
	if w < thr {
		return false
	}
	return s.atLeastMean(w, n)
}

// addSum folds another exact sum into s; the result is the exact sum of
// both multisets, whatever the order of the folds.
func (s *exactSum) addSum(o *exactSum) { s.acc.Add(&s.acc, &o.acc) }

// fixedLimbs covers the largest finite float64 at the fixed-point scale,
// 2^(1024+weightScaleBits), with 64 bits of headroom for carries.
const fixedLimbs = (1024+weightScaleBits)/64 + 2

// fixedSum is exactSum's fixed point held in 64-bit limbs, for hot loops:
// adding a weight touches two limbs plus any carry, with no big
// arithmetic. The zero value is an empty sum; flush hands the sum to an
// exactSum. Like exactSum, it takes finite non-negative weights.
type fixedSum struct {
	limb [fixedLimbs]uint64
	// lo and hi bound the limbs in use, limb[lo:hi]; hi == 0 when empty.
	lo, hi int
}

// Add folds w into the sum.
func (f *fixedSum) Add(w float64) {
	if w == 0 {
		return
	}
	fr, exp := math.Frexp(w)
	m := uint64(fr * (1 << 53))
	shift := exp - 53 + weightScaleBits
	i, off := shift/64, uint(shift%64)
	var c uint64
	f.limb[i], c = bits.Add64(f.limb[i], m<<off, 0)
	f.limb[i+1], c = bits.Add64(f.limb[i+1], m>>(64-off), c)
	j := i + 2
	for ; c != 0; j++ {
		f.limb[j], c = bits.Add64(f.limb[j], 0, c)
	}
	if f.hi == 0 {
		f.lo, f.hi = i, j
	} else {
		f.lo, f.hi = min(f.lo, i), max(f.hi, j)
	}
}

// flush sets dst to the sum and empties f.
func (f *fixedSum) flush(dst *exactSum) {
	var buf [8 * fixedLimbs]byte
	n := 0
	for j := f.hi - 1; j >= f.lo; j-- {
		binary.BigEndian.PutUint64(buf[n:], f.limb[j])
		f.limb[j] = 0
		n += 8
	}
	dst.acc.SetBytes(buf[:n])
	dst.acc.Lsh(&dst.acc, uint(64*f.lo))
	f.lo, f.hi = 0, 0
}
