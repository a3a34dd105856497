// Package plot renders the paper's figure types — load-latency line
// charts, improvement bar charts, utilization heat maps and
// latency-vs-jitter scatter plots — as standalone SVG documents using only
// the standard library. The experiments harness attaches the charts to its
// reports unrendered, and `cmd/experiments -figdir` renders each one when
// it writes the paper's figures as image files.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Chart is a figure that renders itself as a standalone SVG document.
// Rendering reads the chart's data, so that data must not change between
// building the chart and rendering it.
type Chart interface {
	SVG() string
}

// palette holds the categorical series colors (colorblind-safe).
var palette = []string{
	"#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb",
}

// Color returns the i-th categorical color.
func Color(i int) string { return palette[i%len(palette)] }

// esc escapes text for SVG.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// niceTicks returns ~n round tick values covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if hi <= lo {
		hi = lo + 1
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for span/step > float64(n)*2 {
		step *= 2
	}
	for span/step > float64(n) {
		step *= 2.5
		if span/step <= float64(n) {
			break
		}
	}
	start := math.Floor(lo/step) * step
	var ticks []float64
	for v := start; v <= hi+step/2; v += step {
		if v >= lo-step/2 {
			ticks = append(ticks, v)
		}
	}
	return ticks
}

// fmtTick formats an axis value compactly.
func fmtTick(v float64) string {
	a := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case a >= 100:
		return fmt.Sprintf("%.0f", v)
	case a >= 1:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// frame is the shared chart geometry.
type frame struct {
	w, h                   int
	left, right, top, bott int
}

func defaultFrame() frame { return frame{w: 640, h: 400, left: 70, right: 20, top: 40, bott: 55} }

func (f frame) plotW() int { return f.w - f.left - f.right }
func (f frame) plotH() int { return f.h - f.top - f.bott }

// header opens the SVG document.
func (f frame) header(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="Helvetica,Arial,sans-serif">`+"\n",
		f.w, f.h, f.w, f.h)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", f.w, f.h)
	fmt.Fprintf(b, `<text x="%d" y="22" font-size="15" font-weight="bold" text-anchor="middle">%s</text>`+"\n",
		f.w/2, esc(title))
}

// axes draws the frame, ticks and labels for data ranges [x0,x1]x[y0,y1]
// and returns the data-to-pixel transforms.
func (f frame) axes(b *strings.Builder, x0, x1, y0, y1 float64, xlabel, ylabel string) (xf, yf func(float64) float64) {
	xf = func(v float64) float64 {
		return float64(f.left) + (v-x0)/(x1-x0)*float64(f.plotW())
	}
	yf = func(v float64) float64 {
		return float64(f.top) + (1-(v-y0)/(y1-y0))*float64(f.plotH())
	}
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#333"/>`+"\n",
		f.left, f.top, f.plotW(), f.plotH())
	for _, t := range niceTicks(x0, x1, 6) {
		x := xf(t)
		fmt.Fprintf(b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#333"/>`+"\n",
			x, f.top+f.plotH(), x, f.top+f.plotH()+5)
		fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, f.top+f.plotH()+18, fmtTick(t))
	}
	for _, t := range niceTicks(y0, y1, 6) {
		y := yf(t)
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#333"/>`+"\n",
			f.left-5, y, f.left, y)
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`+"\n",
			f.left, y, f.left+f.plotW(), y)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end" dominant-baseline="middle">%s</text>`+"\n",
			f.left-8, y, fmtTick(t))
	}
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
		f.left+f.plotW()/2, f.h-12, esc(xlabel))
	fmt.Fprintf(b, `<text x="16" y="%d" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
		f.top+f.plotH()/2, f.top+f.plotH()/2, esc(ylabel))
	return xf, yf
}

// Series is one line of a line chart.
type Series struct {
	Name string
	X, Y []float64
}

// LineChart is a Figure 7(a)-style multi-series plot.
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// YMax optionally clips the y range (saturated points run away).
	YMax float64
}

// SVG renders the chart.
func (c *LineChart) SVG() string {
	f := defaultFrame()
	var b strings.Builder
	f.header(&b, c.Title)
	x0, x1 := math.Inf(1), math.Inf(-1)
	y0, y1 := 0.0, math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			x0 = math.Min(x0, s.X[i])
			x1 = math.Max(x1, s.X[i])
			y1 = math.Max(y1, s.Y[i])
		}
	}
	if c.YMax > 0 && y1 > c.YMax {
		y1 = c.YMax
	}
	if math.IsInf(x0, 1) {
		x0, x1, y1 = 0, 1, 1
	}
	if y1 <= y0 {
		y1 = y0 + 1
	}
	xf, yf := f.axes(&b, x0, x1, y0, y1*1.05, c.XLabel, c.YLabel)
	for si, s := range c.Series {
		var pts []string
		for i := range s.X {
			y := s.Y[i]
			if y > y1 {
				y = y1
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xf(s.X[i]), yf(y)))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), Color(si))
		for _, p := range pts {
			xy := strings.Split(p, ",")
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="3" fill="%s"/>`+"\n", xy[0], xy[1], Color(si))
		}
		// Legend.
		ly := f.top + 14 + 16*si
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			f.left+10, ly, f.left+34, ly, Color(si))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" dominant-baseline="middle">%s</text>`+"\n",
			f.left+40, ly, esc(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// BarGroup is one cluster of bars (e.g. one benchmark).
type BarGroup struct {
	Label  string
	Values []float64
}

// BarChart is a Figure 7(b)/11/12-style grouped bar chart. With Stacked
// set, the series of each group pile on top of each other (the Figure 8
// breakdown style) instead of standing side by side; stacked values must
// be non-negative.
type BarChart struct {
	Title   string
	YLabel  string
	Series  []string // one name per bar within a group
	Groups  []BarGroup
	Stacked bool
}

// SVG renders the chart.
func (c *BarChart) SVG() string {
	f := defaultFrame()
	var b strings.Builder
	f.header(&b, c.Title)
	y0, y1 := 0.0, 0.0
	for _, g := range c.Groups {
		sum := 0.0
		for _, v := range g.Values {
			y0 = math.Min(y0, v)
			y1 = math.Max(y1, v)
			sum += v
		}
		if c.Stacked && sum > y1 {
			y1 = sum
		}
	}
	if y1 == y0 {
		y1 = y0 + 1
	}
	pad := (y1 - y0) * 0.1
	_, yf := f.axes(&b, 0, 1, y0-pad, y1+pad, "", c.YLabel)
	ng, ns := len(c.Groups), len(c.Series)
	if ng == 0 || ns == 0 {
		b.WriteString("</svg>\n")
		return b.String()
	}
	groupW := float64(f.plotW()) / float64(ng)
	barW := groupW * 0.8 / float64(ns)
	if c.Stacked {
		barW = groupW * 0.8
	}
	zero := yf(0)
	for gi, g := range c.Groups {
		gx := float64(f.left) + groupW*float64(gi) + groupW*0.1
		acc := 0.0
		for si, v := range g.Values {
			if si >= ns {
				break
			}
			if c.Stacked {
				base := yf(acc)
				top := yf(acc + v)
				fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
					gx, top, barW, base-top, Color(si))
				acc += v
				continue
			}
			x := gx + barW*float64(si)
			y := yf(v)
			top, hgt := y, zero-y
			if hgt < 0 {
				top, hgt = zero, -hgt
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, top, barW, hgt, Color(si))
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" text-anchor="middle">%s</text>`+"\n",
			gx+groupW*0.4, f.top+f.plotH()+18, esc(g.Label))
	}
	for si, name := range c.Series {
		ly := f.top + 14 + 16*si
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="10" fill="%s"/>`+"\n",
			f.left+10, ly-8, Color(si))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" dominant-baseline="middle">%s</text>`+"\n",
			f.left+28, ly, esc(name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// HeatChart is a Figure 1/2-style utilization heat map.
type HeatChart struct {
	Title  string
	W, H   int
	Values []float64 // row-major fractions (0..1-ish)
}

// SVG renders the map with a blue-to-red scale and a legend bar.
func (c *HeatChart) SVG() string {
	const cell = 46
	w := c.W*cell + 140
	h := c.H*cell + 70
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="Helvetica,Arial,sans-serif">`+"\n", w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-size="14" font-weight="bold" text-anchor="middle">%s</text>`+"\n",
		(c.W*cell+40)/2, esc(c.Title))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range c.Values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi <= lo {
		hi = lo + 1
	}
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			v := c.Values[y*c.W+x]
			t := (v - lo) / (hi - lo)
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#fff"/>`+"\n",
				20+x*cell, 40+y*cell, cell, cell, heatColor(t))
			fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" text-anchor="middle" fill="%s">%.0f%%</text>`+"\n",
				20+x*cell+cell/2, 40+y*cell+cell/2+4, textColor(t), 100*v)
		}
	}
	// Legend bar.
	lx := 20 + c.W*cell + 20
	for i := 0; i <= 20; i++ {
		t := 1 - float64(i)/20
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="18" height="%d" fill="%s"/>`+"\n",
			lx, 40+i*(c.H*cell)/21, (c.H*cell)/21+1, heatColor(t))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10">%.0f%%</text>`+"\n", lx+24, 48, 100*hi)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10">%.0f%%</text>`+"\n", lx+24, 40+c.H*cell, 100*lo)
	b.WriteString("</svg>\n")
	return b.String()
}

// heatColor maps t in [0,1] onto a blue->yellow->red ramp.
func heatColor(t float64) string {
	t = math.Max(0, math.Min(1, t))
	var r, g, bl float64
	if t < 0.5 {
		u := t * 2
		r, g, bl = 40+u*(250-40), 70+u*(200-70), 200-u*150
	} else {
		u := (t - 0.5) * 2
		r, g, bl = 250-u*30, 200-u*160, 50-u*10
	}
	return fmt.Sprintf("#%02x%02x%02x", int(r), int(g), int(bl))
}

// textColor keeps cell labels legible on light and dark cells.
func textColor(t float64) string {
	if t > 0.25 && t < 0.75 {
		return "#222"
	}
	return "#fff"
}

// ScatterPoint is one labeled marker of a scatter plot.
type ScatterPoint struct {
	Label  string
	X, Y   float64
	Series int
}

// Scatter is a Figure 13(b)-style latency-vs-jitter plot.
type Scatter struct {
	Title  string
	XLabel string
	YLabel string
	Names  []string // per-series legend names
	Points []ScatterPoint
}

// SVG renders the plot.
func (c *Scatter) SVG() string {
	f := defaultFrame()
	var b strings.Builder
	f.header(&b, c.Title)
	x0, x1 := math.Inf(1), math.Inf(-1)
	y0, y1 := math.Inf(1), math.Inf(-1)
	for _, p := range c.Points {
		x0, x1 = math.Min(x0, p.X), math.Max(x1, p.X)
		y0, y1 = math.Min(y0, p.Y), math.Max(y1, p.Y)
	}
	if math.IsInf(x0, 1) {
		x0, x1, y0, y1 = 0, 1, 0, 1
	}
	padX, padY := (x1-x0)*0.1+1e-9, (y1-y0)*0.1+1e-9
	xf, yf := f.axes(&b, x0-padX, x1+padX, y0-padY, y1+padY, c.XLabel, c.YLabel)
	for _, p := range c.Points {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="%s" fill-opacity="0.8"/>`+"\n",
			xf(p.X), yf(p.Y), Color(p.Series))
		if p.Label != "" {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9">%s</text>`+"\n",
				xf(p.X)+6, yf(p.Y)-4, esc(p.Label))
		}
	}
	for si, name := range c.Names {
		ly := f.top + 14 + 16*si
		fmt.Fprintf(&b, `<circle cx="%d" cy="%d" r="4" fill="%s"/>`+"\n", f.left+16, ly, Color(si))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" dominant-baseline="middle">%s</text>`+"\n",
			f.left+28, ly, esc(name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}
