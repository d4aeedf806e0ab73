package layout

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// TestMovedSince pins the move stamps: MovedSince lists the elements moved
// after an edit number in index order, once each however often they moved,
// and refuses once a Touch — an Add*, a delete, an out-of-range
// TouchElement — came after it.
func TestMovedSince(t *testing.T) {
	tc := tech.NMOS()
	d := NewDesign("moved")
	s := d.MustSymbol("top")
	for i := 0; i < 4; i++ {
		s.AddBox(0, geom.R(int64(1000*i), 0, int64(1000*i+500), 500), "")
	}
	d.Top = s
	want := func(label string, seq uint64, elems []int, ok bool) {
		t.Helper()
		got, gotOK := s.MovedSince(seq)
		if gotOK != ok || !reflect.DeepEqual(got, elems) {
			t.Fatalf("%s: MovedSince(%d) = %v, %v; want %v, %v", label, seq, got, gotOK, elems, ok)
		}
	}
	move := func(i int) {
		t.Helper()
		if err := ApplyEdit(d, tc, Edit{Op: OpMoveElement, Symbol: "top", Index: i, DY: 250}); err != nil {
			t.Fatal(err)
		}
	}

	base := s.Seq()
	want("no edit", base, nil, true)
	move(2)
	mid := s.Seq()
	if mid != base+1 {
		t.Fatalf("a move numbered %d, want %d", mid, base+1)
	}
	move(0)
	move(2)
	want("three moves of two elements", base, []int{0, 2}, true)
	want("since the first move", mid, []int{0, 2}, true)
	want("since now", s.Seq(), nil, true)

	s.Touch()
	want("Touch after the moves", base, nil, false)
	touched := s.Seq()
	want("since the Touch", touched, nil, true)
	move(1)
	want("a move after the Touch", touched, []int{1}, true)
	want("across the Touch", mid, nil, false)

	for _, c := range []struct {
		label string
		edit  func()
	}{
		{"AddBox", func() { s.AddBox(0, geom.R(9000, 0, 9500, 500), "") }},
		{"delete", func() {
			if err := ApplyEdit(d, tc, Edit{Op: OpDeleteElement, Symbol: "top", Index: -1}); err != nil {
				t.Fatal(err)
			}
		}},
		{"TouchElement past the end", func() { s.TouchElement(len(s.Elements)) }},
		{"TouchElement(-1)", func() { s.TouchElement(-1) }},
	} {
		seq := s.Seq()
		move(3)
		c.edit()
		want(c.label, seq, nil, false)
		if s.Seq() <= seq+1 {
			t.Fatalf("%s: edit number %d did not move past %d", c.label, s.Seq(), seq+1)
		}
		want(c.label+", since", s.Seq(), nil, true)
	}
}
