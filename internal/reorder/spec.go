package reorder

import (
	"fmt"
	"sort"
	"strings"
)

// Spec is a parsed algorithm specification — the one construction grammar
// every surface shares (CLI -alg flags, expt grids, serve job requests):
//
//	name
//	name:key=value,key=value,...
//
// e.g. "ro", "go:window=7", "ro:edr=2-100,cachebytes=65536",
// "brew:detect=louvain,hub=hs,dense=ro,else=dbg,resolution=1.0".
//
// New parses a spec and builds the algorithm; each registration's Accepts
// lists the keys it takes. An algorithm's Spec() method renders its
// configuration back in this grammar, in canonical form.
type Spec struct {
	// Name is the algorithm name as written (canonical name or alias).
	Name string
	// Params are the key=value parameters in input order; keys are
	// unique.
	Params []Param
}

// Param is one key=value spec parameter.
type Param struct{ Key, Value string }

// SpecError reports a malformed spec string (grammar-level: empty name,
// bad key/value shape, duplicate keys). Errors about what the named
// algorithm accepts surface as *UnknownAlgorithmError or *OptionError
// from New instead.
type SpecError struct {
	Spec   string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("reorder: invalid spec %q: %s", e.Spec, e.Reason)
}

// validSpecToken reports whether s works as an algorithm name, parameter
// key or value: non-empty and drawn from letters, digits and "+._-", so
// free of the grammar's structural characters (':', ',', '=') and
// whitespace.
func validSpecToken(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '+', r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// ParseSpec parses an algorithm spec string. It validates the grammar
// only; whether the name exists and the parameters are meaningful is
// New's job (so parsing stays total over the registry's lifetime).
func ParseSpec(s string) (Spec, error) {
	in := strings.TrimSpace(s)
	name, rest, hasParams := strings.Cut(in, ":")
	if !validSpecToken(name) {
		return Spec{}, &SpecError{Spec: s, Reason: "missing or malformed algorithm name"}
	}
	spec := Spec{Name: name}
	if !hasParams {
		return spec, nil
	}
	if rest == "" {
		return Spec{}, &SpecError{Spec: s, Reason: "trailing ':' with no parameters"}
	}
	seen := make(map[string]bool)
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("parameter %q is not key=value", kv)}
		}
		if !validSpecToken(key) {
			return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("malformed parameter key %q", key)}
		}
		if !validSpecToken(val) {
			return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("malformed value %q for key %q", val, key)}
		}
		if seen[key] {
			return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("duplicate key %q", key)}
		}
		seen[key] = true
		spec.Params = append(spec.Params, Param{Key: key, Value: val})
	}
	return spec, nil
}

// Get returns the value of key and whether it was present.
func (s Spec) Get(key string) (string, bool) {
	for _, p := range s.Params {
		if p.Key == key {
			return p.Value, true
		}
	}
	return "", false
}

// Canonical renders the spec in canonical form: the registry's canonical
// algorithm name (aliases resolved when the name is known) followed by
// the parameters sorted by key. Unlike an algorithm's Spec(), it keeps
// parameters that restate a default ("go:window=5" stays as written).
func (s Spec) Canonical() string {
	name := s.Name
	if info, ok := Lookup(name); ok {
		name = info.Name
	}
	return specOf(name, s.Params...)
}

// specOf renders name and params in the spec grammar with the params
// sorted by key — the canonical form every Spec() method returns.
func specOf(name string, params ...Param) string {
	if len(params) == 0 {
		return name
	}
	params = append([]Param(nil), params...)
	sort.Slice(params, func(i, j int) bool { return params[i].Key < params[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for i, p := range params {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(p.Key)
		b.WriteByte('=')
		b.WriteString(p.Value)
	}
	return b.String()
}

// String implements fmt.Stringer as the canonical form.
func (s Spec) String() string { return s.Canonical() }
