package chaos

import "testing"

// FuzzParseSchedule drives the schedule grammar with arbitrary input.
// Properties checked on every accepted spec:
//
//  1. The canonical rendering re-parses (the grammar accepts its own
//     output).
//  2. Canonicalization is a fixed point: parse → String → parse →
//     String yields the same string.
//  3. Every parsed vfs rule is valid (ParseSchedule never smuggles an
//     invalid rule past Rule.Validate).
//
// Rejected specs only need to not panic.
func FuzzParseSchedule(f *testing.F) {
	seeds := []string{
		"",
		"vfs.write=enospc",
		"vfs.write=short*2@1",
		"vfs.rename=drop",
		"vfs.sync=crash@3,vfs.read=eio*1",
		"vfs.write=flip",
		"vfs.write=flip*2@1,vfs.rename=crash*1",
		"serve.job.run=transient*2,vfs.open=eio",
		"a.b=hang~5ms",
		"vfs.write=eio@1@2",
		"vfs.mkdir=enospc,vfs.readdir=eio,vfs.remove=eio",
		",,,",
		"vfs.write=",
		"vfs.=eio",
		"x=panic*3@-7~1s",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return // rejection is fine; panics are not
		}
		canon := s.String()
		s2, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, spec, err)
		}
		if got := s2.String(); got != canon {
			t.Fatalf("canonicalization not a fixed point: %q -> %q -> %q", spec, canon, got)
		}
		for _, r := range s.Rules {
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted spec %q produced invalid rule %+v: %v", spec, r, err)
			}
		}
	})
}
