package runctl

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Failpoint specs let a real process arm failpoints from the outside —
// the LOCALITYLAB_FAILPOINTS environment variable — so operators
// reproducing a fault can inject panics, stalls and typed errors into
// the stages of a production binary instead of only into in-process
// tests. File faults (crashes, torn writes, corruption) are not stage
// faults: they are injected through vfs.FaultFS, from the chaos
// campaign's vfs.* schedule items.
//
// Grammar (comma-separated list of arm directives):
//
//	name=mode[*times][~duration]
//
//	mode     panic | error | transient | hang
//	*times   fire at most N times, then heal (default: every firing)
//	~dur     HangFor bound for hang (Go duration, e.g. ~500ms)
//
// Examples:
//
//	serve.job.run=panic*1
//	serve.job.run=hang~2s,serve.store.get=transient*2

// ParseSpec parses a failpoint spec string into named Failpoints without
// arming them. An empty spec yields an empty map.
func ParseSpec(spec string) (map[string]Failpoint, error) {
	out := make(map[string]Failpoint)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, rest, ok := strings.Cut(item, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("runctl: failpoint spec %q: want name=mode[*times][~dur]", item)
		}
		fp, err := parseMode(rest)
		if err != nil {
			return nil, fmt.Errorf("runctl: failpoint spec %q: %w", item, err)
		}
		out[name] = fp
	}
	return out, nil
}

// parseMode parses the right-hand side of one arm directive.
func parseMode(s string) (Failpoint, error) {
	var fp Failpoint
	// Suffix decorations can appear in any order after the mode word.
	mode := s
	if i := strings.IndexAny(mode, "*~"); i >= 0 {
		mode = mode[:i]
	}
	rest := s[len(mode):]
	switch mode {
	case "panic":
		fp.Mode = FailPanic
	case "error":
		fp.Mode = FailError
	case "transient":
		fp.Mode = FailTransient
	case "hang":
		fp.Mode = FailHang
	default:
		return fp, fmt.Errorf("unknown mode %q (want panic, error, transient or hang)", mode)
	}
	for rest != "" {
		sep := rest[0]
		val := rest[1:]
		if i := strings.IndexAny(val, "*~"); i >= 0 {
			val = val[:i]
		}
		rest = rest[1+len(val):]
		switch sep {
		case '*':
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fp, fmt.Errorf("bad times %q (want a positive integer)", val)
			}
			fp.Times = n
		case '~':
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return fp, fmt.Errorf("bad duration %q", val)
			}
			fp.HangFor = d
		}
	}
	if fp.HangFor != 0 && fp.Mode != FailHang {
		return fp, fmt.Errorf("~duration only applies to hang")
	}
	return fp, nil
}

// InjectSpec parses spec and arms every failpoint it names, returning a
// remover that disarms them all. This is the production entry point
// behind LOCALITYLAB_FAILPOINTS: unlike Inject it is meant to be called
// from a real process, so a production binary's stage faults are armed
// the same way an operator would arm them.
func InjectSpec(spec string) (remove func(), err error) {
	fps, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	removers := make([]func(), 0, len(fps))
	for name, fp := range fps {
		removers = append(removers, Inject(name, fp))
	}
	return func() {
		for _, r := range removers {
			r()
		}
	}, nil
}
