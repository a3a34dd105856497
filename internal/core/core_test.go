package core

import (
	"strings"
	"testing"

	"heteronoc/internal/traffic"
)

func TestBigRouterCounts(t *testing.T) {
	for _, p := range []Placement{PlacementCenter, PlacementRow25, PlacementDiagonal} {
		big := BigRouters(p, 8, 8)
		if len(big) != 16 {
			t.Errorf("%s: %d big routers, want 16 (=2N)", p, len(big))
		}
	}
}

func TestDiagonalPlacementGeometry(t *testing.T) {
	l := NewLayout(PlacementDiagonal, 8, 8, true)
	m := l.Mesh
	for i := 0; i < 8; i++ {
		if l.Class[m.RouterAt(i, i)] != ClassBig {
			t.Errorf("router (%d,%d) not big", i, i)
		}
		if l.Class[m.RouterAt(7-i, i)] != ClassBig {
			t.Errorf("router (%d,%d) not big", 7-i, i)
		}
	}
	// Every row and column has exactly two big routers.
	for y := 0; y < 8; y++ {
		n := 0
		for x := 0; x < 8; x++ {
			if l.Class[m.RouterAt(x, y)] == ClassBig {
				n++
			}
		}
		if n != 2 {
			t.Errorf("row %d has %d big routers, want 2", y, n)
		}
	}
}

func TestRow25Placement(t *testing.T) {
	l := NewLayout(PlacementRow25, 8, 8, false)
	m := l.Mesh
	for x := 0; x < 8; x++ {
		if l.Class[m.RouterAt(x, 1)] != ClassBig || l.Class[m.RouterAt(x, 4)] != ClassBig {
			t.Fatalf("rows 1/4 not fully big at column %d", x)
		}
	}
}

func TestCenterPlacement(t *testing.T) {
	l := NewLayout(PlacementCenter, 8, 8, false)
	m := l.Mesh
	for y := 2; y <= 5; y++ {
		for x := 2; x <= 5; x++ {
			if l.Class[m.RouterAt(x, y)] != ClassBig {
				t.Errorf("center router (%d,%d) not big", x, y)
			}
		}
	}
	if l.Class[0] != ClassSmall {
		t.Error("corner router not small")
	}
}

func TestVCConservation(t *testing.T) {
	base := NewBaseline(8, 8).Accounting()
	for _, l := range AllLayouts(8, 8)[1:] {
		res := l.Accounting()
		if res.TotalVCs != base.TotalVCs {
			t.Errorf("%s: total VCs %d, want %d (conservation)", l.Name, res.TotalVCs, base.TotalVCs)
		}
		if res.BufferCnt != base.BufferCnt {
			t.Errorf("%s: buffer count %d, want %d", l.Name, res.BufferCnt, base.BufferCnt)
		}
	}
}

func TestTable1Numbers(t *testing.T) {
	base := NewBaseline(8, 8).Accounting()
	if base.TotalVCs != 64*3*5 {
		t.Errorf("baseline total VCs %d, want 960", base.TotalVCs)
	}
	if base.BufferCnt != 4800 {
		t.Errorf("baseline buffers %d, want 4800", base.BufferCnt)
	}
	if base.BufferBits != 921600 {
		t.Errorf("baseline buffer bits %d, want 921600", base.BufferBits)
	}
	het := NewLayout(PlacementDiagonal, 8, 8, true).Accounting()
	if het.BufferBits != 614400 {
		t.Errorf("hetero buffer bits %d, want 614400 (33%% reduction)", het.BufferBits)
	}
	if base.BisectionBits != 8*192 {
		t.Errorf("baseline bisection %d, want 1536", base.BisectionBits)
	}
	// Router area: 18.56 mm2 homogeneous vs 18.08 heterogeneous (paper 3.5).
	if got := base.AreaMM2; got < 18.55 || got > 18.57 {
		t.Errorf("baseline area %.3f, want 18.56", got)
	}
	if got := het.AreaMM2; got < 18.07 || got > 18.09 {
		t.Errorf("hetero area %.3f, want 18.08", got)
	}
	// Hetero router power total 48*0.30 + 16*1.19 = 33.44 < 64*0.67 = 42.88.
	if got := het.RouterPowerW; got < 33.43 || got > 33.45 {
		t.Errorf("hetero power %.3f, want 33.44", got)
	}
}

func TestCenterBisectionMatchesEquation(t *testing.T) {
	// The paper's link-width equation: 192*8 = 128*4 + 256*4 for the
	// Center+BL cut (4 narrow + 4 wide links).
	l := NewLayout(PlacementCenter, 8, 8, true)
	res := l.Accounting()
	if res.BisectionBits != 4*128+4*256 {
		t.Errorf("Center+BL bisection %d bits, want %d", res.BisectionBits, 4*128+4*256)
	}
	base := NewBaseline(8, 8).Accounting()
	if res.BisectionBits != base.BisectionBits {
		t.Errorf("Center+BL bisection %d != baseline %d", res.BisectionBits, base.BisectionBits)
	}
}

func TestPowerInequality(t *testing.T) {
	if MinSmallRouters(8) != 38 {
		t.Errorf("minimum small routers = %d, want 38 (paper: ns >= 37.4)", MinSmallRouters(8))
	}
	for _, l := range AllLayouts(8, 8) {
		if !l.PowerInequalityHolds() {
			t.Errorf("%s violates the power inequality", l.Name)
		}
	}
}

// bufferWidth is the layout's flit buffer width in bits.
func bufferWidth(l Layout) int {
	res := l.Accounting()
	return res.BufferBits / res.BufferCnt
}

func TestFlitWidthAndFrequency(t *testing.T) {
	base := NewBaseline(8, 8)
	if bufferWidth(base) != 192 || base.DataPacketFlits() != 6 {
		t.Error("baseline flit geometry wrong")
	}
	if base.FreqGHz() != 2.20 {
		t.Error("baseline frequency wrong")
	}
	bl := NewLayout(PlacementDiagonal, 8, 8, true)
	if bufferWidth(bl) != 128 {
		t.Error("+BL datapath width must be 128 bits")
	}
	if bl.DataPacketFlits() != 6 {
		t.Error("data packets are 6 flow-control flits in every layout (see DESIGN.md)")
	}
	if bl.FreqGHz() != 2.07 {
		t.Error("+BL frequency wrong")
	}
	b := NewLayout(PlacementDiagonal, 8, 8, false)
	if bufferWidth(b) != 192 || b.DataPacketFlits() != 6 {
		t.Error("+B must keep 192-bit flits")
	}
	if b.FreqGHz() != 2.07 {
		t.Error("+B runs at worst-case big-router frequency")
	}
}

func TestAllLayoutsValidateAndBuild(t *testing.T) {
	for _, l := range AllLayouts(8, 8) {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
		n, err := l.Network()
		if err != nil {
			t.Errorf("%s: network build: %v", l.Name, err)
			continue
		}
		// Smoke: run a little traffic through each.
		res, err := traffic.Run(n, traffic.RunConfig{
			Pattern:        traffic.UniformRandom{N: 64},
			Process:        traffic.Bernoulli{P: 0.005},
			DataFlits:      l.DataPacketFlits(),
			WarmupPackets:  50,
			MeasurePackets: 300,
			Seed:           1,
		})
		if err != nil {
			t.Errorf("%s: run: %v", l.Name, err)
			continue
		}
		if res.AvgLatency <= 0 {
			t.Errorf("%s: no latency measured", l.Name)
		}
	}
}

func TestOnTorus(t *testing.T) {
	l := NewLayout(PlacementDiagonal, 8, 8, true).OnTorus()
	if !l.Mesh.Wrap() {
		t.Fatal("OnTorus did not produce a torus")
	}
	if _, _, big := l.Counts(); big != 16 {
		t.Errorf("torus layout big count %d, want 16", big)
	}
	if _, err := l.Network(); err != nil {
		t.Fatalf("torus network: %v", err)
	}
}

func TestLinkBits(t *testing.T) {
	l := NewLayout(PlacementDiagonal, 8, 8, true)
	m := l.Mesh
	// Router (0,0) is big: its east link to small (1,0) is wide.
	if got := l.LinkBits(m.RouterAt(0, 0), 0); got != 256 {
		t.Errorf("big-small link = %d bits, want 256", got)
	}
	// Small (2,0) to small (3,0): narrow.
	if got := l.LinkBits(m.RouterAt(2, 0), 0); got != 128 {
		t.Errorf("small-small link = %d bits, want 128", got)
	}
	b := NewLayout(PlacementDiagonal, 8, 8, false)
	if got := b.LinkBits(0, 0); got != 192 {
		t.Errorf("+B link = %d bits, want 192", got)
	}
}

func TestTable1Render(t *testing.T) {
	s := Table1(NewLayout(PlacementDiagonal, 8, 8, true))
	for _, want := range []string{"0.67W", "0.30W", "1.19W", "921600", "614400", "33% reduction", "2.07 GHz"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, s)
		}
	}
}

func TestCustomLayout(t *testing.T) {
	l := NewCustom("probe", 4, 4, []int{0, 5, 10, 15}, true)
	_, small, big := l.Counts()
	if big != 4 || small != 12 {
		t.Errorf("custom counts small=%d big=%d", small, big)
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRenderShowsPlacement(t *testing.T) {
	out := NewLayout(PlacementDiagonal, 8, 8, true).Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 9 { // title + 8 rows
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
	// Row 0: big at both corners.
	if lines[1][0] != 'B' || lines[1][14] != 'B' {
		t.Errorf("corners not big in:\n%s", out)
	}
	grid := out[strings.Index(out, "\n")+1:] // the title itself contains "+BL"
	if strings.Count(grid, "B") != 16 {
		t.Errorf("%d big routers rendered, want 16", strings.Count(grid, "B"))
	}
	base := NewBaseline(8, 8).Render()
	if strings.Count(base, "o") != 64 {
		t.Errorf("baseline render wrong:\n%s", base)
	}
}

func TestLayoutByName(t *testing.T) {
	for _, name := range []string{"Baseline", "Center+B", "Center+BL", "Row2_5+B", "Row2_5+BL", "Diagonal+B", "diagonal+bl"} {
		l, err := LayoutByName(name, 8, 8)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if l.Mesh.NumRouters() != 64 {
			t.Errorf("%s: wrong mesh", name)
		}
	}
	if _, err := LayoutByName("nope", 8, 8); err == nil {
		t.Error("unknown layout accepted")
	}
}

func TestBigRoutersOn4x4(t *testing.T) {
	// The DSE grid: diagonal on 4x4 gives 8 routers (both diagonals).
	diag := BigRouters(PlacementDiagonal, 4, 4)
	if len(diag) != 8 {
		t.Errorf("4x4 diagonal big count %d, want 8", len(diag))
	}
	center := BigRouters(PlacementCenter, 4, 4)
	if len(center) != 2*4 {
		t.Errorf("4x4 center big count %d, want 8", len(center))
	}
	row := BigRouters(PlacementRow25, 4, 4)
	if len(row) != 8 {
		t.Errorf("4x4 row big count %d, want 8", len(row))
	}
}
