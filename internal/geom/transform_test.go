package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrientApply(t *testing.T) {
	p := Pt(3, 1)
	cases := []struct {
		o    Orient
		want Point
	}{
		{R0, Pt(3, 1)},
		{R90, Pt(-1, 3)},
		{R180, Pt(-3, -1)},
		{R270, Pt(1, -3)},
		{MX, Pt(3, -1)},
		{MX90, Pt(1, 3)},
		{MX180, Pt(-3, 1)},
		{MX270, Pt(-1, -3)},
	}
	for _, c := range cases {
		if got := c.o.apply(p); got != c.want {
			t.Errorf("%v.apply(%v) = %v, want %v", c.o, p, got, c.want)
		}
	}
}

// Property: compose agrees with function composition of apply.
func TestQuickOrientCompose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := Orient(rng.Intn(8))
		q := Orient(rng.Intn(8))
		p := Pt(int64(rng.Intn(41)-20), int64(rng.Intn(41)-20))
		return o.compose(q).apply(p) == q.apply(o.apply(p))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: every orientation composed with its inverse is the identity.
func TestOrientInverse(t *testing.T) {
	for o := Orient(0); o < 8; o++ {
		if got := o.compose(o.inverse()); got != R0 {
			t.Errorf("%v.compose(inverse) = %v", o, got)
		}
		if got := o.inverse().compose(o); got != R0 {
			t.Errorf("inverse.compose(%v) = %v", o, got)
		}
	}
}

func TestTransformApplyRect(t *testing.T) {
	tr := NewTransform(R90, Pt(100, 0))
	r := R(0, 0, 10, 4)
	got := tr.ApplyRect(r)
	if got != R(96, 0, 100, 10) {
		t.Fatalf("ApplyRect = %v", got)
	}
}

// Property: Transform Compose/Apply coherence and Inverse round trip.
func TestQuickTransformComposeInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := NewTransform(Orient(rng.Intn(8)), Pt(int64(rng.Intn(21)-10), int64(rng.Intn(21)-10)))
		t2 := NewTransform(Orient(rng.Intn(8)), Pt(int64(rng.Intn(21)-10), int64(rng.Intn(21)-10)))
		p := Pt(int64(rng.Intn(41)-20), int64(rng.Intn(41)-20))
		if t1.Compose(t2).Apply(p) != t2.Apply(t1.Apply(p)) {
			return false
		}
		inv := t1.Inverse()
		return inv.Apply(t1.Apply(p)) == p && t1.Apply(inv.Apply(p)) == p
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPointOps(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, -2)
	if p.Add(q) != Pt(4, 2) || p.Sub(q) != Pt(2, 6) || p.Neg() != Pt(-3, -4) {
		t.Fatal("basic point arithmetic failed")
	}
	if p.Dot(q) != -5 || p.Cross(q) != -10 {
		t.Fatal("dot/cross failed")
	}
	if p.Scale(2) != Pt(6, 8) {
		t.Fatal("scale failed")
	}
	if got := Pt(0, 0).Dist(Pt(3, 4)); got != 5 {
		t.Fatalf("dist = %v", got)
	}
}
