package reorder

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec keys shared by several algorithms. OptEDR values take the form
// "min-max" ("2-100"; max 0 = unbounded above).
const (
	OptSeed       = "seed"
	OptWindow     = "window"
	OptEDR        = "edr"
	OptCacheBytes = "cachebytes"
	OptHubCap     = "hubcap"
)

// Params is what a Registration's factory receives: the spec's key=value
// parameters, already checked against the registration's Accepts list.
// The typed getters return the default for an absent key and a
// *OptionError for a malformed or out-of-range value.
type Params struct {
	alg    string // algorithm name as written, for error messages
	params []Param
}

// Get returns the raw value of key and whether it was given.
func (p Params) Get(key string) (string, bool) {
	return Spec{Params: p.params}.Get(key)
}

func (p Params) invalid(key, value, reason string) error {
	return &OptionError{Alg: p.alg, Option: key, Value: value, Reason: reason}
}

func (p Params) uint(key string, def uint64) (uint64, error) {
	s, ok := p.Get(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, p.invalid(key, s, "want an unsigned integer")
	}
	return v, nil
}

// Seed returns the seed of randomized orderings (default 1).
func (p Params) Seed() (uint64, error) { return p.uint(OptSeed, 1) }

// CacheBytes returns the cache capacity cache-aware variants target
// (default 0, cache-oblivious).
func (p Params) CacheBytes() (uint64, error) { return p.uint(OptCacheBytes, 0) }

// Window returns the GOrder sliding-window size (default 5, the paper's).
func (p Params) Window() (int, error) {
	s, ok := p.Get(OptWindow)
	if !ok {
		return defaultWindow, nil
	}
	w, err := strconv.Atoi(s)
	if err != nil {
		return 0, p.invalid(OptWindow, s, "want an integer")
	}
	if w < 1 {
		return 0, p.invalid(OptWindow, fmt.Sprintf("%d", w), "window must be >= 1")
	}
	return w, nil
}

// HubCap reports whether GOrder caps the in-neighbours that score at
// out-degree ⌊√|V|⌋; "sqrt" is the one cap accepted.
func (p Params) HubCap() (bool, error) {
	s, ok := p.Get(OptHubCap)
	if !ok {
		return false, nil
	}
	if s != "sqrt" {
		return false, p.invalid(OptHubCap, s, `want "sqrt"`)
	}
	return true, nil
}

// EDR returns the efficacy degree range [lo, hi] Rabbit-Order merges
// over (§VIII-B2); hi 0 means unbounded above, and 0-0 (the default)
// means unrestricted.
func (p Params) EDR() (lo, hi uint32, err error) {
	s, ok := p.Get(OptEDR)
	if !ok {
		return 0, 0, nil
	}
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, p.invalid(OptEDR, s, `want "min-max" (max 0 = unbounded)`)
	}
	min, err1 := strconv.ParseUint(a, 10, 32)
	max, err2 := strconv.ParseUint(b, 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, p.invalid(OptEDR, s, "degree bounds must be unsigned 32-bit integers")
	}
	if max != 0 && min > max {
		return 0, 0, p.invalid(OptEDR, fmt.Sprintf("%d-%d", min, max),
			"degree range is empty (min > max)")
	}
	return uint32(min), uint32(max), nil
}

// Int returns an integer parameter (default def) that must be >= min;
// reason describes the valid values in the error for anything else.
func (p Params) Int(key string, def, min int, reason string) (int, error) {
	s, ok := p.Get(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < min {
		return 0, p.invalid(key, s, reason)
	}
	return v, nil
}
