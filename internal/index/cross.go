package index

import "math/bits"

// CrossLine is one reference line of a crossing descent
// (Snapshot.ForEachCrossLines): the score line of the object whose
// crossings are wanted, and the weight window [lo, hi] ⊆ [0, 1] the
// caller needs them in. Build it with NewCrossLine.
type CrossLine struct {
	lo, hi float64
	// The reference score at each window edge, less (for the below
	// rule) or plus (for the above rule) the margin that edge compares
	// with.
	loBelow, hiBelow, loAbove, hiAbove float64
}

// MaxCrossLines is the most lines one ForEachCrossLines call takes: a
// visit names its lines in one 64-bit mask.
const MaxCrossLines = 64

// crossMargin is how far strictly below (or above) a reference line a
// bound must stay at an interior window edge to settle a subtree. It is
// far above the rounding of the edge evaluations, so a settled object's
// crossing, computed from its exact endpoint scores, falls outside the
// window on the same side the bound proves. The endpoints 0 and 1
// compare exactly, in the sweep's own endpoint comparisons.
const crossMargin = 1e-9

// NewCrossLine returns the reference line from m0 at wt = 0 to m1 at
// wt = 1 over the window [lo, hi]; lo = 0 and hi = 1 ask for the whole
// interval, as ForEachCross does.
//
//yask:hotpath
func NewCrossLine(m0, m1, lo, hi float64) CrossLine {
	mLo, mHi := (1-lo)*m0+lo*m1, (1-hi)*m0+hi*m1
	return CrossLine{
		lo: lo, hi: hi,
		loBelow: mLo - edgeMargin(lo), hiBelow: mHi - edgeMargin(hi),
		loAbove: mLo + edgeMargin(lo), hiAbove: mHi + edgeMargin(hi),
	}
}

// edgeMargin is the margin a window edge at wt compares with:
// crossMargin inside the interval, none at its ends.
//
//yask:hotpath
func edgeMargin(wt float64) float64 {
	if wt == 0 || wt == 1 {
		return 0
	}
	return crossMargin
}

// BelowMask returns the lines of mask (bit i for lines[i]) that every
// score line bounded above by a at wt = 0 and t at wt = 1 stays
// strictly below over the line's window. Score lines are straight, so
// the two window edges decide it. At an edge 0 or 1, (1−wt)·a + wt·t is
// exactly a or t and the reference score exactly m0 or m1, so those
// edges compare the endpoint scores themselves. Similarities are never
// negative, so BelowMask(lines, mask, a, 0) is the set a textual bound
// can still settle: the lines worth computing one for.
//
//yask:hotpath
func BelowMask(lines []CrossLine, mask uint64, a, t float64) uint64 {
	below := uint64(0)
	for m := mask; m != 0; m &= m - 1 {
		l := &lines[bits.TrailingZeros64(m)]
		if (1-l.lo)*a+l.lo*t < l.loBelow && (1-l.hi)*a+l.hi*t < l.hiBelow {
			below |= m & -m
		}
	}
	return below
}

// AboveMask returns the lines of mask that every score line bounded
// below by a at wt = 0 and t at wt = 1 stays strictly above over the
// line's window.
//
//yask:hotpath
func AboveMask(lines []CrossLine, mask uint64, a, t float64) uint64 {
	above := uint64(0)
	for m := mask; m != 0; m &= m - 1 {
		l := &lines[bits.TrailingZeros64(m)]
		if (1-l.lo)*a+l.lo*t > l.loAbove && (1-l.hi)*a+l.hi*t > l.hiAbove {
			above |= m & -m
		}
	}
	return above
}

// LinesMask returns the mask naming all of lines.
//
//yask:hotpath
func LinesMask(lines []CrossLine) uint64 {
	if len(lines) >= MaxCrossLines {
		return ^uint64(0)
	}
	return 1<<len(lines) - 1
}
