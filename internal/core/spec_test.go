package core

import (
	"testing"
)

func TestSpecRoundTrip(t *testing.T) {
	for _, l := range AllLayouts(8, 8) {
		data, err := LayoutJSON(l)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseLayoutJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if back.Name != l.Name || back.LinkRedist != l.LinkRedist {
			t.Errorf("%s: round trip changed identity: %+v", l.Name, SpecOf(back))
		}
		if got, want := SpecOf(back).Big, SpecOf(l).Big; len(got) != len(want) {
			t.Errorf("%s: big routers %v, want %v", l.Name, got, want)
		}
		for i := range l.Class {
			if back.Class[i] != l.Class[i] {
				t.Fatalf("%s: router %d class changed", l.Name, i)
			}
		}
	}
}

func TestSpecTorusRoundTrip(t *testing.T) {
	l := NewLayout(PlacementDiagonal, 8, 8, true).OnTorus()
	l.Name = "diag-torus"
	data, err := LayoutJSON(l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseLayoutJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Mesh.Wrap() {
		t.Error("torus flag lost")
	}
	if _, _, big := back.Counts(); big != 16 {
		t.Errorf("big count %d", big)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []LayoutSpec{
		{Name: "tiny", Width: 1, Height: 8},
		{Name: "range", Width: 4, Height: 4, Big: []int{16}},
		{Name: "dup", Width: 4, Height: 4, Big: []int{3, 3}},
	}
	for _, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	if _, err := ParseLayoutJSON([]byte("{nope")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestSpecBaselineWhenNoBig(t *testing.T) {
	l, err := LayoutSpec{Name: "plain", Width: 4, Height: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if l.IsHetero() {
		t.Error("empty big set should build the homogeneous baseline")
	}
	if bufferWidth(l) != 192 {
		t.Error("baseline width wrong")
	}
}

func TestSpecBuildsRunnableNetwork(t *testing.T) {
	l, err := ParseLayoutJSON([]byte(`{"name":"x","width":4,"height":4,"big":[5,6,9,10],"linkRedist":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Network(); err != nil {
		t.Fatal(err)
	}
}
