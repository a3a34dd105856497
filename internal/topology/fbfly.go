package topology

import "fmt"

// FBfly is a two-dimensional flattened butterfly (Kim, Dally, Abts — ISCA'07)
// as used in the paper's Figure 2(b): routers form a W x H grid, every router
// links directly to every other router in its row and in its column, and
// each router serves C terminals. The paper's instance is 4x4 routers with
// C=4 (64 terminals, 16 routers, radix 10).
//
// Port layout per router at grid position (x, y):
//
//	ports 0 .. W-2        row links, ordered by increasing destination column
//	                      (skipping the router's own column)
//	ports W-1 .. W+H-3    column links, ordered by increasing destination row
//	ports W+H-2 ..        C terminal ports
type FBfly struct {
	w, h, c int
	name    string
}

// NewFBfly returns a W x H flattened butterfly with concentration degree c.
func NewFBfly(w, h, c int) *FBfly {
	if w < 2 || h < 2 || c < 1 {
		panic(fmt.Sprintf("topology: invalid flattened butterfly %dx%d c=%d", w, h, c))
	}
	return &FBfly{w: w, h: h, c: c, name: fmt.Sprintf("fbfly%dx%dc%d", w, h, c)}
}

func (f *FBfly) Name() string           { return f.name }
func (f *FBfly) NumRouters() int        { return f.w * f.h }
func (f *FBfly) NumTerminals() int      { return f.w * f.h * f.c }
func (f *FBfly) Radix(r int) int        { return (f.w - 1) + (f.h - 1) + f.c }
func (f *FBfly) Dims() (int, int)       { return f.w, f.h }
func (f *FBfly) Coord(r int) (int, int) { return r % f.w, r / f.w }
func (f *FBfly) RouterAt(x, y int) int  { return y*f.w + x }

// RowPort returns the output port at router r that reaches column dstX in
// the same row. It panics when dstX is the router's own column.
func (f *FBfly) RowPort(r, dstX int) int {
	x, _ := f.Coord(r)
	if dstX == x {
		panic("topology: fbfly row port to own column")
	}
	if dstX < x {
		return dstX
	}
	return dstX - 1
}

// ColPort returns the output port at router r that reaches row dstY in the
// same column.
func (f *FBfly) ColPort(r, dstY int) int {
	_, y := f.Coord(r)
	if dstY == y {
		panic("topology: fbfly col port to own row")
	}
	base := f.w - 1
	if dstY < y {
		return base + dstY
	}
	return base + dstY - 1
}

func (f *FBfly) firstTerminalPort() int { return (f.w - 1) + (f.h - 1) }

func (f *FBfly) Neighbor(r, p int) (Link, bool) {
	x, y := f.Coord(r)
	switch {
	case p < f.w-1: // row link
		dstX := p
		if dstX >= x {
			dstX++
		}
		n := f.RouterAt(dstX, y)
		return Link{n, f.RowPort(n, x)}, true
	case p < f.firstTerminalPort(): // column link
		dstY := p - (f.w - 1)
		if dstY >= y {
			dstY++
		}
		n := f.RouterAt(x, dstY)
		return Link{n, f.ColPort(n, y)}, true
	default:
		return Link{}, false
	}
}

func (f *FBfly) TerminalRouter(t int) (int, int) {
	return t / f.c, f.firstTerminalPort() + t%f.c
}

func (f *FBfly) PortTerminal(r, p int) (int, bool) {
	first := f.firstTerminalPort()
	if p < first || p >= first+f.c {
		return 0, false
	}
	return r*f.c + (p - first), true
}
