// Package client consumes the senterr taxonomy from outside its defining
// package — where identity comparison and type assertion break wrapped
// errors (a pool MemberError wrapping an UnsatError would never
// compare equal to the sentinel).
package client

import (
	"errors"

	"github.com/paper-repo-growth/go-arxiv/internal/analysis/errtaxonomy/testdata/src/senterr"
)

// BadCompare is the historical bug shape: resolver callers comparing a
// possibly-wrapped error against the sentinel by identity.
func BadCompare(err error) bool {
	return err == senterr.ErrUnsat // want `comparison == against sentinel error senterr.ErrUnsat; use errors.Is`
}

func BadNotEqual(err error) bool {
	return err != senterr.ErrUnsat // want `comparison != against sentinel error senterr.ErrUnsat; use errors.Is`
}

func BadAssert(err error) ([]string, bool) {
	ue, ok := err.(*senterr.UnsatError) // want `type assertion on error to \*.*UnsatError outside its package; use errors.As`
	if !ok {
		return nil, false
	}
	return ue.Roots, true
}

func BadSwitch(err error) string {
	switch err.(type) {
	case *senterr.UnsatError: // want `type switch on error with case \*.*UnsatError outside its package; use errors.As`
		return "unsat"
	default:
		return "other"
	}
}

// Good uses the taxonomy as designed; nil checks stay legal.
func Good(err error) ([]string, bool) {
	if err == nil {
		return nil, false
	}
	var ue *senterr.UnsatError
	if errors.As(err, &ue) && errors.Is(err, senterr.ErrUnsat) {
		return ue.Roots, true
	}
	return nil, false
}
