package runctl

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		want map[string]Failpoint
	}{
		{"", map[string]Failpoint{}},
		{"a=panic", map[string]Failpoint{"a": {Mode: FailPanic}}},
		{"a=panic*1", map[string]Failpoint{"a": {Mode: FailPanic, Times: 1}}},
		{"serve.job.run=hang~500ms", map[string]Failpoint{
			"serve.job.run": {Mode: FailHang, HangFor: 500 * time.Millisecond}}},
		{"a=hang*2~1s", map[string]Failpoint{"a": {Mode: FailHang, Times: 2, HangFor: time.Second}}},
		{"a=panic, b=transient*3", map[string]Failpoint{
			"a": {Mode: FailPanic}, "b": {Mode: FailTransient, Times: 3}}},
		{"a=error", map[string]Failpoint{"a": {Mode: FailError}}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseSpec(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for name, fp := range tc.want {
			if got[name] != fp {
				t.Errorf("ParseSpec(%q)[%s] = %+v, want %+v", tc.spec, name, got[name], fp)
			}
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"nomode",
		"a=",
		"=panic",
		"a=explode",
		"a=panic*0",
		"a=panic*x",
		"a=hang~-1s",
		"a=hang~soon",
		"a=panic@3", // no offsets: file faults live in vfs.FaultFS
		"a=crash",   // likewise no file-fault modes
		"a=truncate",
		"a=bitflip",
		"a=error~1s",   // duration on a non-hang mode
		"a=panic~1s*2", // duration on a non-hang mode, decorations reordered
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestInjectSpecArmsAndDisarms(t *testing.T) {
	remove, err := InjectSpec("spec.point=error*1")
	if err != nil {
		t.Fatal(err)
	}
	if err := Fire(context.Background(), "spec.point"); err == nil {
		t.Fatal("armed failpoint did not fire")
	}
	// Times=1: healed after one firing.
	if err := Fire(context.Background(), "spec.point"); err != nil {
		t.Fatalf("healed failpoint fired again: %v", err)
	}
	remove()
	if err := Fire(context.Background(), "spec.point"); err != nil {
		t.Fatalf("disarmed failpoint fired: %v", err)
	}
}

func TestInjectSpecTransientRetryable(t *testing.T) {
	remove, err := InjectSpec("spec.tr=transient")
	if err != nil {
		t.Fatal(err)
	}
	defer remove()
	err = Fire(context.Background(), "spec.tr")
	if !IsTransient(err) {
		t.Fatalf("transient mode produced non-transient error %v", err)
	}
	var fe *failpointError
	if !errors.As(err, &fe) {
		t.Fatalf("unexpected error type %T", err)
	}
}
