package reorder

import (
	"errors"
	"strings"
	"testing"
)

func TestParseSpecValid(t *testing.T) {
	cases := []struct {
		in   string
		name string
		want []Param
	}{
		{"ro", "ro", nil},
		{"  ro  ", "ro", nil},
		{"go:window=7", "go", []Param{{"window", "7"}}},
		{"sb++", "sb++", nil},
		{"ro:edr=2-100,cachebytes=65536", "ro",
			[]Param{{"edr", "2-100"}, {"cachebytes", "65536"}}},
		{"brew:detect=louvain,hub=hs,dense=ro,else=dbg,resolution=1.0", "brew",
			[]Param{{"detect", "louvain"}, {"hub", "hs"}, {"dense", "ro"},
				{"else", "dbg"}, {"resolution", "1.0"}}},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if s.Name != c.name {
			t.Errorf("ParseSpec(%q).Name = %q, want %q", c.in, s.Name, c.name)
		}
		if len(s.Params) != len(c.want) {
			t.Errorf("ParseSpec(%q).Params = %v, want %v", c.in, s.Params, c.want)
			continue
		}
		for i, p := range c.want {
			if s.Params[i] != p {
				t.Errorf("ParseSpec(%q).Params[%d] = %v, want %v", c.in, i, s.Params[i], p)
			}
		}
	}
}

func TestParseSpecInvalid(t *testing.T) {
	cases := []string{
		"",                     // empty
		"   ",                  // whitespace only
		":window=7",            // missing name
		"go:",                  // trailing colon
		"go:window",            // not key=value
		"go:window=",           // empty value
		"go:=7",                // empty key
		"go:window=7,",         // trailing comma -> empty param
		"go:window=7,window=9", // duplicate key
		"go:a b=c",             // whitespace in key
		"go:a=b c",             // whitespace in value
		"g o",                  // whitespace in name
		"go:k==v",              // '=' in value
		"ro:edr=2:100",         // ':' in value splits grammar
	}
	for _, c := range cases {
		if _, err := ParseSpec(c); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", c)
		} else {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Errorf("ParseSpec(%q) error %T, want *SpecError", c, err)
			}
		}
	}
}

func TestSpecCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ro", "ro"},
		{"rabbit", "ro"}, // alias resolves
		{"gorder:window=7", "go:window=7"},
		{"ro:cachebytes=65536,edr=2-100", "ro:cachebytes=65536,edr=2-100"},
		{"ro:edr=2-100,cachebytes=65536", "ro:cachebytes=65536,edr=2-100"},
		{"unknownalg:b=2,a=1", "unknownalg:a=1,b=2"}, // unknown names pass through
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got := s.Canonical(); got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
		// Canonical form must re-parse to the same canonical form.
		s2, err := ParseSpec(s.Canonical())
		if err != nil {
			t.Fatalf("ParseSpec(Canonical(%q)): %v", c.in, err)
		}
		if s2.Canonical() != s.Canonical() {
			t.Errorf("canonicalization not idempotent for %q", c.in)
		}
	}
}

func TestSpecNewGenericOptions(t *testing.T) {
	alg, err := New("go:window=9")
	if err != nil || alg.Name() != "GO" {
		t.Fatalf("go:window=9 -> %v, %v", alg, err)
	}
	if g, ok := alg.(*GOrder); !ok || g.Window != 9 {
		t.Fatalf("window not applied: %#v", alg)
	}
	alg, err = New("ro:edr=2-100")
	if err != nil {
		t.Fatalf("ro:edr=2-100: %v", err)
	}
	if ro, ok := alg.(*RabbitOrder); !ok || ro.MinDegree != 2 || ro.MaxDegree != 100 {
		t.Fatalf("edr not applied: %#v", alg)
	}
	alg, err = New("random:seed=42")
	if err != nil {
		t.Fatalf("random:seed=42: %v", err)
	}
	if alg.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestSpecNewErrors(t *testing.T) {
	var ua *UnknownAlgorithmError
	if _, err := New("nope"); !errors.As(err, &ua) {
		t.Errorf("unknown name error = %v, want *UnknownAlgorithmError", err)
	}

	var oe *OptionError
	// Malformed value for a generic key.
	if _, err := New("go:window=tiny"); !errors.As(err, &oe) {
		t.Errorf("bad window value error = %v, want *OptionError", err)
	}
	// Out-of-range value for a generic key.
	if _, err := New("go:window=0"); !errors.As(err, &oe) {
		t.Errorf("window=0 error = %v, want *OptionError", err)
	} else if !strings.Contains(oe.Error(), "window") {
		t.Errorf("error %q does not name the option", oe.Error())
	}
	// The one hub cap is "sqrt".
	for _, bad := range []string{"go:hubcap=0", "go:hubcap=12", "go:hubcap=half", "go:hubcap=SQRT"} {
		if _, err := New(bad); !errors.As(err, &oe) {
			t.Errorf("%s error = %v, want *OptionError", bad, err)
		}
	}
	// Empty degree range.
	if _, err := New("ro:edr=9-3"); !errors.As(err, &oe) {
		t.Errorf("edr=9-3 error = %v, want *OptionError", err)
	}
	// Malformed degree range.
	if _, err := New("ro:edr=wide"); !errors.As(err, &oe) {
		t.Errorf("edr=wide error = %v, want *OptionError", err)
	}
	// Generic option the algorithm does not accept.
	if _, err := New("identity:window=3"); !errors.As(err, &oe) {
		t.Errorf("identity:window error = %v, want *OptionError", err)
	}
	// Structured key on a non-composable algorithm.
	if _, err := New("go:detect=louvain"); !errors.As(err, &oe) {
		t.Errorf("go:detect error = %v, want *OptionError", err)
	} else if oe.Option != "detect" {
		t.Errorf("error names option %q, want detect", oe.Option)
	}
	// Parse errors propagate through New.
	var se *SpecError
	if _, err := New("go:window=7,"); !errors.As(err, &se) {
		t.Errorf("trailing comma error = %v, want *SpecError", err)
	}
}

// FuzzParseSpec checks that ParseSpec never panics, that every spec it
// accepts round-trips (Canonical() re-parses to an equal canonical form),
// and that every spec New accepts round-trips through Spec(): New(Spec())
// succeeds and reports the same Spec().
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"ro",
		"go:window=7",
		"sb++",
		"ro:edr=2-100,cachebytes=65536",
		"brew:detect=louvain,hub=hs,dense=ro,else=dbg,resolution=1.0",
		"brew:detect=none",
		"hybrid",
		"  identity  ",
		":broken",
		"go:",
		"go:window",
		"go:window=7,window=9",
		"go:k==v",
		"x:a=1,b=2,c=3,d=4,e=5",
		"boba:workers=4,seed=2",
		"rabbit:edr=5-0,cachebytes=100",
		"graphbrew:resolution=0x1p-2,hub=hs,seed=0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseSpec(%q) error %T, want *SpecError", in, err)
			}
			return
		}
		if s.Name == "" {
			t.Fatalf("ParseSpec(%q) accepted with empty name", in)
		}
		seen := map[string]bool{}
		for _, p := range s.Params {
			if p.Key == "" || p.Value == "" {
				t.Fatalf("ParseSpec(%q) accepted empty key/value: %v", in, s.Params)
			}
			if seen[p.Key] {
				t.Fatalf("ParseSpec(%q) accepted duplicate key %q", in, p.Key)
			}
			seen[p.Key] = true
		}
		canon := s.Canonical()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("Canonical %q of accepted spec %q does not re-parse: %v", canon, in, err)
		}
		if got := s2.Canonical(); got != canon {
			t.Fatalf("canonicalization not idempotent: %q -> %q -> %q", in, canon, got)
		}
		// New must never panic regardless of what the fuzzer invents.
		alg, err := New(in)
		if err != nil {
			return
		}
		spec := alg.Spec()
		again, err := New(spec)
		if err != nil {
			t.Fatalf("Spec %q of accepted spec %q is rejected: %v", spec, in, err)
		}
		if got := again.Spec(); got != spec {
			t.Fatalf("Spec not a fixpoint: %q -> %q -> %q", in, spec, got)
		}
	})
}
