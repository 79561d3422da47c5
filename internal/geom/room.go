package geom

import "fmt"

// Wall identifies one of the six boundary planes of an axis-aligned room.
type Wall int

// The six walls of a Room. Naming follows the coordinate convention:
// WallXMin is the plane x = 0, WallXMax the plane x = Room.Size.X, etc.
// WallZMin is the floor and WallZMax the ceiling.
const (
	WallXMin Wall = iota
	WallXMax
	WallYMin
	WallYMax
	WallZMin
	WallZMax
	numWalls
)

// Walls lists all six walls in a stable order.
func Walls() []Wall {
	return []Wall{WallXMin, WallXMax, WallYMin, WallYMax, WallZMin, WallZMax}
}

// String names the wall for diagnostics.
func (w Wall) String() string {
	switch w {
	case WallXMin:
		return "x-min"
	case WallXMax:
		return "x-max"
	case WallYMin:
		return "y-min"
	case WallYMax:
		return "y-max"
	case WallZMin:
		return "floor"
	case WallZMax:
		return "ceiling"
	default:
		return fmt.Sprintf("wall(%d)", int(w))
	}
}

// Room is an axis-aligned rectangular room with one corner at the origin
// and the opposite corner at Size. This matches the paper's controlled
// indoor setting and is all the image method needs.
type Room struct {
	Size Vec
}

// NewRoom returns a room of the given interior dimensions in metres.
// It does not check them: propagation.Environment.Validate rejects a
// room that is not finite and positive, so bad sizes from the public
// API come back as errors.
func NewRoom(x, y, z float64) Room {
	return Room{Size: Vec{x, y, z}}
}

// Contains reports whether p lies inside the room (boundary inclusive).
func (r Room) Contains(p Vec) bool {
	return p.X >= 0 && p.X <= r.Size.X &&
		p.Y >= 0 && p.Y <= r.Size.Y &&
		p.Z >= 0 && p.Z <= r.Size.Z
}

// Mirror returns the mirror image of point p across the given wall plane.
// Mirror images are the core of the image method: a first-order wall
// reflection from TX to RX has the same length and arrival direction as
// the straight segment from Mirror(TX, wall) to RX.
func (r Room) Mirror(p Vec, w Wall) Vec {
	switch w {
	case WallXMin:
		return Vec{-p.X, p.Y, p.Z}
	case WallXMax:
		return Vec{2*r.Size.X - p.X, p.Y, p.Z}
	case WallYMin:
		return Vec{p.X, -p.Y, p.Z}
	case WallYMax:
		return Vec{p.X, 2*r.Size.Y - p.Y, p.Z}
	case WallZMin:
		return Vec{p.X, p.Y, -p.Z}
	case WallZMax:
		return Vec{p.X, p.Y, 2*r.Size.Z - p.Z}
	default:
		panic(fmt.Sprintf("geom: unknown wall %d", int(w)))
	}
}

// ReflectionPoint returns the point on the given wall where the specular
// path from a to b bounces, assuming both points are inside the room.
// The boolean is false when the specular point falls outside the wall's
// rectangle (no geometric reflection exists for this wall/pair).
func (r Room) ReflectionPoint(a, b Vec, w Wall) (Vec, bool) {
	img := r.Mirror(a, w)
	d := b.Sub(img)

	// Parametrize img + t·d and intersect with the wall plane.
	var t float64
	switch w {
	case WallXMin:
		if d.X == 0 {
			return Vec{}, false
		}
		t = -img.X / d.X
	case WallXMax:
		if d.X == 0 {
			return Vec{}, false
		}
		t = (r.Size.X - img.X) / d.X
	case WallYMin:
		if d.Y == 0 {
			return Vec{}, false
		}
		t = -img.Y / d.Y
	case WallYMax:
		if d.Y == 0 {
			return Vec{}, false
		}
		t = (r.Size.Y - img.Y) / d.Y
	case WallZMin:
		if d.Z == 0 {
			return Vec{}, false
		}
		t = -img.Z / d.Z
	case WallZMax:
		if d.Z == 0 {
			return Vec{}, false
		}
		t = (r.Size.Z - img.Z) / d.Z
	default:
		panic(fmt.Sprintf("geom: unknown wall %d", int(w)))
	}
	if t <= 0 || t >= 1 {
		return Vec{}, false
	}
	p := img.Add(d.Scale(t))
	// The bounce point must lie within the wall rectangle (with a little
	// slack for roundoff on the two in-plane coordinates).
	const slack = 1e-9
	ok := p.X >= -slack && p.X <= r.Size.X+slack &&
		p.Y >= -slack && p.Y <= r.Size.Y+slack &&
		p.Z >= -slack && p.Z <= r.Size.Z+slack
	return p, ok
}

// Normal returns the inward-pointing unit normal of the wall.
func (r Room) Normal(w Wall) Vec {
	switch w {
	case WallXMin:
		return Vec{1, 0, 0}
	case WallXMax:
		return Vec{-1, 0, 0}
	case WallYMin:
		return Vec{0, 1, 0}
	case WallYMax:
		return Vec{0, -1, 0}
	case WallZMin:
		return Vec{0, 0, 1}
	case WallZMax:
		return Vec{0, 0, -1}
	default:
		panic(fmt.Sprintf("geom: unknown wall %d", int(w)))
	}
}
