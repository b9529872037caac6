// Package version implements Spack-style version values and ranges.
//
// Versions are dot-separated sequences of numeric or alphanumeric segments
// ("1.14.5", "3.4.3", "2021.06.0", "develop"). Ordering is segment-wise:
// numeric segments compare numerically, alphabetic segments compare
// lexically, and numeric segments order after alphabetic ones at the same
// position (so "1.2" > "1.beta"). A shorter version that is a prefix of a
// longer one orders before it ("1.2" < "1.2.1").
//
// Ranges follow Spack's spec syntax (Table 1 of the paper): "@1.2" is a
// prefix constraint satisfied by 1.2 and any 1.2.x; "@1.2:1.4" is an
// inclusive range; "@1.2:" and "@:1.4" are half-open; "@:" is any version.
package version

import (
	"fmt"
	"strconv"
	"strings"
)

// segment is one dot-separated component of a version.
type segment struct {
	num   uint64
	str   string
	isNum bool
}

func (s segment) String() string {
	if s.isNum {
		return strconv.FormatUint(s.num, 10)
	}
	return s.str
}

// compareSegments orders two segments. Numeric segments order after
// alphabetic ones ("1.beta" < "1.2"), matching Spack's convention that
// pre-release words precede numbered releases.
func compareSegments(a, b segment) int {
	switch {
	case a.isNum && b.isNum:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	case a.isNum && !b.isNum:
		return 1
	case !a.isNum && b.isNum:
		return -1
	default:
		return strings.Compare(a.str, b.str)
	}
}

// Version is an immutable parsed version value. The zero Version is the
// empty version, which orders before every non-empty version.
type Version struct {
	segs []segment
	raw  string
}

// Parse parses a version string. Segments are separated by '.', '-' or '_'.
// An empty string is invalid.
func Parse(s string) (Version, error) {
	if s == "" {
		return Version{}, fmt.Errorf("version: empty version string")
	}
	norm := strings.Map(func(r rune) rune {
		if r == '-' || r == '_' {
			return '.'
		}
		return r
	}, s)
	fields := strings.Split(norm, ".")
	segs := make([]segment, 0, len(fields))
	for _, f := range fields {
		if f == "" {
			return Version{}, fmt.Errorf("version: empty segment in %q", s)
		}
		if n, err := strconv.ParseUint(f, 10, 64); err == nil {
			segs = append(segs, segment{num: n, isNum: true})
		} else {
			segs = append(segs, segment{str: f})
		}
	}
	return Version{segs: segs, raw: s}, nil
}

// MustParse is Parse but panics on error; intended for package definitions
// and tests where the input is a literal.
func MustParse(s string) Version {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String returns the original string form of the version.
func (v Version) String() string { return v.raw }

// IsZero reports whether v is the zero (empty) version.
func (v Version) IsZero() bool { return len(v.segs) == 0 }

// Len returns the number of segments.
func (v Version) Len() int { return len(v.segs) }

// Compare returns -1, 0, or +1 ordering v against w.
func (v Version) Compare(w Version) int {
	n := len(v.segs)
	if len(w.segs) < n {
		n = len(w.segs)
	}
	for i := 0; i < n; i++ {
		if c := compareSegments(v.segs[i], w.segs[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(v.segs) < len(w.segs):
		return -1
	case len(v.segs) > len(w.segs):
		return 1
	}
	return 0
}

// Equal reports segment-wise equality (ignores raw formatting differences
// such as "1-2" vs "1.2").
func (v Version) Equal(w Version) bool { return v.Compare(w) == 0 }

// HasPrefix reports whether p is a segment-wise prefix of v. Every version
// is a prefix of itself. The empty version is a prefix of everything.
func (v Version) HasPrefix(p Version) bool {
	if len(p.segs) > len(v.segs) {
		return false
	}
	for i := range p.segs {
		if compareSegments(v.segs[i], p.segs[i]) != 0 {
			return false
		}
	}
	return true
}

// Range is an inclusive version range with optional bounds. Bounds use
// Spack prefix semantics: the upper bound "1.4" admits 1.4.8 because 1.4.8
// has prefix 1.4; the exact form Lo==Hi ("@1.2") admits any version with
// prefix 1.2.
type Range struct {
	lo, hi     Version
	hasLo      bool
	hasHi      bool
	exactRange bool // true when written without ':' (prefix-match form)
}

// AnyRange is the range satisfied by every version ("@:").
var AnyRange = Range{}

// ExactRange returns the prefix-constraint range for v (spec form "@v").
func ExactRange(v Version) Range {
	return Range{lo: v, hi: v, hasLo: true, hasHi: true, exactRange: true}
}

// NewRange builds a bounded range; either bound may be the zero Version to
// leave that side open.
func NewRange(lo, hi Version) Range {
	return Range{lo: lo, hi: hi, hasLo: !lo.IsZero(), hasHi: !hi.IsZero()}
}

// ParseRange parses the version portion of a spec constraint: "1.2",
// "1.2:1.4", "1.2:", ":1.4", ":".
func ParseRange(s string) (Range, error) {
	if s == "" {
		return Range{}, fmt.Errorf("version: empty range")
	}
	idx := strings.Index(s, ":")
	if idx < 0 {
		v, err := Parse(s)
		if err != nil {
			return Range{}, err
		}
		return ExactRange(v), nil
	}
	var r Range
	loStr, hiStr := s[:idx], s[idx+1:]
	if strings.Contains(hiStr, ":") {
		return Range{}, fmt.Errorf("version: multiple ':' in range %q", s)
	}
	if loStr != "" {
		lo, err := Parse(loStr)
		if err != nil {
			return Range{}, err
		}
		r.lo, r.hasLo = lo, true
	}
	if hiStr != "" {
		hi, err := Parse(hiStr)
		if err != nil {
			return Range{}, err
		}
		r.hi, r.hasHi = hi, true
	}
	if r.hasLo && r.hasHi && r.lo.Compare(r.hi) > 0 {
		return Range{}, fmt.Errorf("version: inverted range %q", s)
	}
	return r, nil
}

// MustParseRange is ParseRange but panics on error.
func MustParseRange(s string) Range {
	r, err := ParseRange(s)
	if err != nil {
		panic(err)
	}
	return r
}

// IsAny reports whether the range admits every version.
func (r Range) IsAny() bool { return !r.hasLo && !r.hasHi }

// IsExact reports whether the range was written as a single version
// (prefix-match form).
func (r Range) IsExact() bool { return r.exactRange }

// Lo returns the lower bound and whether it is set.
func (r Range) Lo() (Version, bool) { return r.lo, r.hasLo }

// Hi returns the upper bound and whether it is set.
func (r Range) Hi() (Version, bool) { return r.hi, r.hasHi }

// Satisfies reports whether v lies in the range. Prefix semantics apply on
// the upper bound and on exact constraints.
func (r Range) Satisfies(v Version) bool {
	if r.exactRange {
		return v.HasPrefix(r.lo)
	}
	if r.hasLo {
		if v.Compare(r.lo) < 0 && !v.HasPrefix(r.lo) {
			return false
		}
	}
	if r.hasHi {
		if v.Compare(r.hi) > 0 && !v.HasPrefix(r.hi) {
			return false
		}
	}
	return true
}

// String renders the range in spec syntax (without the leading '@').
func (r Range) String() string {
	if r.exactRange {
		return r.lo.String()
	}
	var b strings.Builder
	if r.hasLo {
		b.WriteString(r.lo.String())
	}
	b.WriteByte(':')
	if r.hasHi {
		b.WriteString(r.hi.String())
	}
	return b.String()
}

// Sort orders versions ascending in place (insertion sort; version lists in
// package definitions are short).
func Sort(vs []Version) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].Compare(vs[j-1]) < 0; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// SortDesc orders versions descending (newest first) in place.
func SortDesc(vs []Version) {
	Sort(vs)
	for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
		vs[i], vs[j] = vs[j], vs[i]
	}
}

// Max returns the maximum of the given versions; the zero Version if none.
func Max(vs []Version) Version {
	var m Version
	for _, v := range vs {
		if m.IsZero() || v.Compare(m) > 0 {
			m = v
		}
	}
	return m
}
