package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestRoomContains(t *testing.T) {
	r := NewRoom(6, 5, 3)
	cases := []struct {
		p    Vec
		want bool
	}{
		{V(3, 2, 1), true},
		{V(0, 0, 0), true},
		{V(6, 5, 3), true},
		{V(-0.1, 2, 1), false},
		{V(3, 5.1, 1), false},
		{V(3, 2, 3.5), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMirrorInvolution(t *testing.T) {
	r := NewRoom(6, 5, 3)
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 100; trial++ {
		p := V(rng.Float64()*6, rng.Float64()*5, rng.Float64()*3)
		for _, w := range Walls() {
			m := r.Mirror(r.Mirror(p, w), w)
			if p.Dist(m) > 1e-12 {
				t.Fatalf("Mirror not an involution on %v across %v", p, w)
			}
		}
	}
}

func TestMirrorKnownValues(t *testing.T) {
	r := NewRoom(6, 5, 3)
	p := V(1, 2, 1.5)
	cases := []struct {
		w    Wall
		want Vec
	}{
		{WallXMin, V(-1, 2, 1.5)},
		{WallXMax, V(11, 2, 1.5)},
		{WallYMin, V(1, -2, 1.5)},
		{WallYMax, V(1, 8, 1.5)},
		{WallZMin, V(1, 2, -1.5)},
		{WallZMax, V(1, 2, 4.5)},
	}
	for _, c := range cases {
		if got := r.Mirror(p, c.w); got.Dist(c.want) > 1e-12 {
			t.Errorf("Mirror %v = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestReflectionPointSpecular(t *testing.T) {
	r := NewRoom(6, 5, 3)
	a := V(1, 2, 1.5)
	b := V(5, 2, 1.5)
	// Reflection off the y-min wall: bounce point has y = 0 and, by
	// symmetry of equal heights, x midway.
	p, ok := r.ReflectionPoint(a, b, WallYMin)
	if !ok {
		t.Fatal("expected a reflection point")
	}
	if math.Abs(p.Y) > 1e-12 || math.Abs(p.X-3) > 1e-12 {
		t.Errorf("bounce point = %v", p)
	}
	// Specular law: angle of incidence equals angle of reflection, i.e.
	// path length equals |Mirror(a) - b|.
	length := a.Dist(p) + p.Dist(b)
	want := r.Mirror(a, WallYMin).Dist(b)
	if math.Abs(length-want) > 1e-12 {
		t.Errorf("path length %v, image distance %v", length, want)
	}
}

func TestReflectionPointAllWalls(t *testing.T) {
	r := NewRoom(6, 5, 3)
	a, b := V(1, 1, 1), V(5, 4, 2)
	for _, w := range Walls() {
		p, ok := r.ReflectionPoint(a, b, w)
		if !ok {
			t.Errorf("wall %v: no reflection point for interior endpoints", w)
			continue
		}
		// The bounce point lies on the wall plane.
		var onPlane bool
		switch w {
		case WallXMin:
			onPlane = math.Abs(p.X) < 1e-9
		case WallXMax:
			onPlane = math.Abs(p.X-6) < 1e-9
		case WallYMin:
			onPlane = math.Abs(p.Y) < 1e-9
		case WallYMax:
			onPlane = math.Abs(p.Y-5) < 1e-9
		case WallZMin:
			onPlane = math.Abs(p.Z) < 1e-9
		case WallZMax:
			onPlane = math.Abs(p.Z-3) < 1e-9
		}
		if !onPlane {
			t.Errorf("wall %v: bounce point %v not on plane", w, p)
		}
	}
}

func TestReflectionPointDegenerate(t *testing.T) {
	r := NewRoom(6, 5, 3)
	// Both points on the wall plane itself: direction parallel, no bounce.
	if _, ok := r.ReflectionPoint(V(1, 0, 1), V(5, 0, 1), WallYMin); ok {
		t.Error("expected no reflection for in-plane segment")
	}
}

func TestNormalsPointInward(t *testing.T) {
	r := NewRoom(6, 5, 3)
	center := V(3, 2.5, 1.5)
	for _, w := range Walls() {
		// A point just inside the wall plus the normal moves toward center.
		p, _ := r.ReflectionPoint(V(1, 1, 1), V(5, 4, 2), w)
		n := r.Normal(w)
		if n.Norm() != 1 {
			t.Errorf("wall %v: normal not unit", w)
		}
		if center.Sub(p).Dot(n) <= 0 {
			t.Errorf("wall %v: normal does not point inward", w)
		}
	}
}

func TestWallString(t *testing.T) {
	if WallZMin.String() != "floor" || WallZMax.String() != "ceiling" {
		t.Error("wall names wrong")
	}
	if Wall(99).String() != "wall(99)" {
		t.Error("unknown wall name wrong")
	}
}
