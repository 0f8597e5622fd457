// Fixture for the exhaustive analyzer: switches over a closed enum
// (a defined integer or string type with >= 2 typed package constants)
// must cover every constant or carry a default that panics / builds an
// error.
package policy

import "fmt"

type Design int

const (
	CD Design = iota
	ROD
	DCA
)

// full covers every constant: exhaustive without a default.
func full(d Design) string {
	switch d {
	case CD:
		return "cd"
	case ROD:
		return "rod"
	case DCA:
		return "dca"
	}
	return "?"
}

func missing(d Design) string {
	switch d { // want `non-exhaustive switch over Design: missing DCA`
	case CD:
		return "cd"
	case ROD:
		return "rod"
	}
	return "?"
}

func silentDefault(d Design) bool {
	switch d { // want `switch over Design misses CD, DCA and its default silently picks a behaviour`
	case ROD:
		return true
	default:
		return false
	}
}

// panicDefault fails loudly on a value outside the closed set: a new
// enum constant crashes here instead of silently taking a branch.
func panicDefault(d Design) bool {
	switch d {
	case ROD:
		return true
	default:
		panic(fmt.Sprintf("unknown design %d", int(d)))
	}
}

// errDefault surfaces the unknown value as an error.
func errDefault(d Design) (string, error) {
	switch d {
	case CD, ROD, DCA:
		return "known", nil
	default:
		return "", fmt.Errorf("unknown design %d", int(d))
	}
}

// notAnEnum: switches over plain ints are unconstrained.
func notAnEnum(n int) bool {
	switch n {
	case 1:
		return true
	default:
		return false
	}
}

// Policy is a closed string enum (mirrors core.Algorithm): the same
// rules hold as for integer enums.
type Policy string

const (
	PolBLISS  Policy = "BLISS"
	PolFRFCFS Policy = "FR-FCFS"
	PolFCFS   Policy = "FCFS"
)

// stringFull covers every constant: exhaustive without a default.
func stringFull(p Policy) string {
	switch p {
	case PolBLISS:
		return "bliss"
	case PolFRFCFS:
		return "frfcfs"
	case PolFCFS:
		return "fcfs"
	}
	return "?"
}

func stringMissing(p Policy) string {
	switch p { // want `non-exhaustive switch over Policy: missing PolFRFCFS`
	case PolBLISS:
		return "bliss"
	case PolFCFS:
		return "fcfs"
	}
	return "?"
}

func stringSilentDefault(p Policy) bool {
	switch p { // want `switch over Policy misses PolBLISS, PolFCFS and its default silently picks a behaviour`
	case PolFRFCFS:
		return true
	default:
		return false
	}
}

// stringLoudDefault surfaces an unknown name in a panic.
func stringLoudDefault(p Policy) string {
	switch p {
	case PolBLISS:
		return "bliss"
	default:
		panic(fmt.Sprintf("unknown policy %q", string(p)))
	}
}

// notAnEnumString: switches over plain strings are unconstrained.
func notAnEnumString(s string) bool {
	switch s {
	case "bliss":
		return true
	default:
		return false
	}
}
