package core

import (
	"strings"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

func TestAdviseSocialNetwork(t *testing.T) {
	g := gen.SocialNetwork(13, 16, 3)
	a := Advise(g)
	if a.Class != ClassSocial {
		t.Errorf("class = %v, want social (advice: %v)", a.Class, a)
	}
	if a.Direction != trace.Pull {
		t.Errorf("direction = %v, want pull", a.Direction)
	}
	if a.Reorder != "GO" {
		t.Errorf("reorder = %q, want GO", a.Reorder)
	}
	if a.HubAsymmetry > 0.5 {
		t.Errorf("social hub asymmetry %.2f too high", a.HubAsymmetry)
	}
}

func TestAdviseWebGraph(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 3))
	a := Advise(g)
	if a.Class != ClassWeb {
		t.Errorf("class = %v, want web (advice: %v)", a.Class, a)
	}
	if a.Direction != trace.PushRead {
		t.Errorf("direction = %v, want pushread", a.Direction)
	}
	if a.Reorder != "RO" {
		t.Errorf("reorder = %q, want RO", a.Reorder)
	}
	if a.HubAsymmetry < 0.5 {
		t.Errorf("web hub asymmetry %.2f too low", a.HubAsymmetry)
	}
}

func TestAdviseUniform(t *testing.T) {
	g := gen.ErdosRenyi(1<<13, 80000, 3)
	a := Advise(g)
	if a.Class != ClassUniform {
		t.Errorf("class = %v, want uniform (advice: %v)", a.Class, a)
	}
	if a.Reorder != "none" {
		t.Errorf("reorder = %q, want none", a.Reorder)
	}
}

func TestAdviseEmptyAndStringer(t *testing.T) {
	a := Advise(graph.FromEdges(0, nil))
	if a.Reorder != "none" {
		t.Error("empty graph should need no reordering")
	}
	s := a.String()
	if !strings.Contains(s, "class=") {
		t.Errorf("String = %q", s)
	}
	for _, c := range []GraphClass{ClassUniform, ClassSocial, ClassWeb, GraphClass(9)} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}
