package core

// The Section-4 γ-truncated sparse superaccumulator as a standalone
// engine: where SumAdaptive searches for the smallest sufficient γ
// (squaring from 2), SumTruncated commits to one fixed γ — the paper's
// single-round configuration — and checks the stopping certificates once.
// When the certificate fails (or nothing can be certified), it falls back
// to an untruncated exact pass, so the declared Faithful capability holds
// unconditionally while well-conditioned inputs pay only the truncated
// cost.

// truncGamma is the fixed component budget. 64 components cover the full
// exponent spread of most realistic data at DefaultWidth (σ ≤ ⌈2098/32⌉+1
// = 67 only for inputs spanning the entire double range), so truncation —
// and with it the fallback — is rare off adversarial inputs.
const truncGamma = 64

// truncChunk is the exact-leaf block size of the merge tree, matching
// SumAdaptive's default.
const truncChunk = 1 << 16

// SumTruncated returns a faithfully rounded sum of xs computed with
// γ-truncated sparse superaccumulators at the fixed γ above. The result is
// certified: if the bottom-up truncated merge dropped anything, the
// stopping conditions of Section 4 must both hold, and when they do not
// the input is re-summed exactly (untruncated), so the returned value is
// always a faithful rounding of the exact sum — correctly rounded whenever
// nothing was truncated or the fallback ran.
func SumTruncated(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var work int64
	t := adaptiveMerge(xs, truncGamma, 0, truncChunk, &work)
	if !t.Truncated {
		return t.S.Round()
	}
	if t.StopFloat(len(xs)) && t.StopStrict() {
		return t.S.Round()
	}
	return Sum(xs)
}
