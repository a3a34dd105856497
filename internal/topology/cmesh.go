package topology

import "fmt"

// CMesh is a concentrated mesh: a W x H router grid where each router serves
// C terminals. The paper's Figure 2(a) uses a 4x4 concentrated mesh with
// concentration degree 4 (64 terminals on 16 routers). Port layout per
// router: E, W, N, S (0..3) followed by C local terminal ports (4..4+C-1).
type CMesh struct {
	mesh *Mesh
	c    int
	name string
}

// NewCMesh returns a W x H concentrated mesh with concentration degree c.
func NewCMesh(w, h, c int) *CMesh {
	if c < 1 {
		panic(fmt.Sprintf("topology: concentration degree must be positive, got %d", c))
	}
	return &CMesh{mesh: NewMesh(w, h), c: c, name: fmt.Sprintf("cmesh%dx%dc%d", w, h, c)}
}

func (m *CMesh) Name() string           { return m.name }
func (m *CMesh) NumRouters() int        { return m.mesh.NumRouters() }
func (m *CMesh) NumTerminals() int      { return m.mesh.NumRouters() * m.c }
func (m *CMesh) Radix(r int) int        { return 4 + m.c }
func (m *CMesh) Dims() (int, int)       { return m.mesh.Dims() }
func (m *CMesh) Coord(r int) (int, int) { return m.mesh.Coord(r) }
func (m *CMesh) RouterAt(x, y int) int  { return m.mesh.RouterAt(x, y) }

func (m *CMesh) Neighbor(r, p int) (Link, bool) {
	if p >= PortLocal {
		return Link{}, false
	}
	return m.mesh.Neighbor(r, p)
}

func (m *CMesh) TerminalRouter(t int) (int, int) {
	return t / m.c, PortLocal + t%m.c
}

func (m *CMesh) PortTerminal(r, p int) (int, bool) {
	if p < PortLocal || p >= PortLocal+m.c {
		return 0, false
	}
	return r*m.c + (p - PortLocal), true
}
