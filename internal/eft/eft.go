// Package eft implements the classic error-free transformations of
// floating-point arithmetic: operations that compute both the rounded result
// of a floating-point operation and the exact rounding error, each as a
// float64.
//
// The paper calls the two-term transform AddTwo:
//
//	AddTwo(x, y) → (s, es)  with  s = x⊕y  and  x + y = s + es  exactly,
//
// citing the implementations of Dekker (1971) and Knuth (1997). TwoSum is
// Knuth's branch-free 6-operation version; FastTwoSum is Dekker's
// 3-operation version requiring |a| ≥ |b|. These are the substrate for the
// iFastSum baseline and for the exact products in the examples.
package eft

import "math"

// TwoSum returns s = fl(a+b) and the exact error e such that a+b = s+e.
// It is Knuth's branch-free algorithm and is valid for any finite a, b
// (barring overflow of the intermediate sums).
func TwoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	av := s - bv
	e = (a - av) + (b - bv)
	return s, e
}

// FastTwoSum returns s = fl(a+b) and the exact error e such that a+b = s+e.
// It is Dekker's algorithm and requires |a| ≥ |b| (or a == 0); callers that
// cannot guarantee the ordering must use TwoSum.
func FastTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// splitFactor is 2^27+1, used by Split to halve a 53-bit significand.
const splitFactor = 1<<27 + 1

// Split decomposes a into hi + lo where each part has at most 26 significant
// bits (Dekker/Veltkamp splitting), enabling exact multiplication on
// hardware without FMA.
//
// Go may fuse x*y ± z into one fused multiply-add, which skips the rounding
// of the product; this function and TwoProdDekker depend on that rounding,
// so each product is wrapped in an explicit float64 conversion, which
// forbids the fusion.
func Split(a float64) (hi, lo float64) {
	c := float64(splitFactor * a)
	hi = c - (c - a)
	lo = a - hi
	return hi, lo
}

// TwoProd returns p = fl(a·b) and the exact error e such that a·b = p+e,
// using math.FMA when it contributes an exactly rounded fused multiply-add.
func TwoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return p, e
}

// TwoProdDekker returns p = fl(a·b) and the exact error e such that
// a·b = p+e computed with Veltkamp splitting only (no FMA). Exposed for
// testing TwoProd against an independent implementation.
func TwoProdDekker(a, b float64) (p, e float64) {
	p = float64(a * b)
	ahi, alo := Split(a)
	bhi, blo := Split(b)
	e = ((float64(ahi*bhi) - p) + float64(ahi*blo) + float64(alo*bhi)) + float64(alo*blo)
	return p, e
}

// Sum2 computes fl(Σx) and the running compensation using TwoSum, i.e.
// cascaded compensated summation (Ogita–Rump–Oishi Sum2). It returns the
// compensated result sum+err rounded once. It is used as a mid-accuracy
// baseline: faithful for modest condition numbers, not exact in general.
func Sum2(x []float64) float64 {
	var s, c float64
	for _, v := range x {
		var e float64
		s, e = TwoSum(s, v)
		c += e
	}
	return s + c
}
