package trace

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Plot renders one or more series as a standalone SVG line chart, so
// cmd/garnet can emit figures directly comparable to the paper's
// plots. Pure stdlib: the output is a complete <svg> document.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Scatter renders points as marks instead of connected lines
	// (Figure 7's sequence plots).
	Scatter bool
}

// chart geometry.
const (
	marginLeft   = 70
	marginRight  = 20
	marginTop    = 40
	marginBottom = 50
)

var plotColors = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// SVG renders the plot.
func (p Plot) SVG() string {
	const w, h = 640, 400 // chart size in pixels
	plotW := float64(w - marginLeft - marginRight)
	plotH := float64(h - marginTop - marginBottom)

	// Data ranges.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1)
	for _, s := range p.Series {
		for _, pt := range s.Points {
			x := pt.T.Seconds()
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if pt.V > maxY {
				maxY = pt.V
			}
			if pt.V < minY {
				minY = pt.V
			}
		}
	}
	if math.IsInf(minX, 1) {
		minX, maxX, maxY = 0, 1, 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	sx := func(x float64) float64 { return float64(marginLeft) + (x-minX)/(maxX-minX)*plotW }
	sy := func(y float64) float64 { return float64(marginTop) + (1-(y-minY)/(maxY-minY))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	if p.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="20" text-anchor="middle" font-size="14">%s</text>`+"\n", w/2, escape(p.Title))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, h-marginBottom)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, h-marginBottom, w-marginRight, h-marginBottom)
	// Ticks: 5 per axis.
	for i := 0; i <= 5; i++ {
		x := minX + (maxX-minX)*float64(i)/5
		px := sx(x)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n",
			px, h-marginBottom, px, h-marginBottom+5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n",
			px, h-marginBottom+20, formatTick(x))
		y := minY + (maxY-minY)*float64(i)/5
		py := sy(y)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n",
			marginLeft-5, py, marginLeft, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" dominant-baseline="middle">%s</text>`+"\n",
			marginLeft-8, py, formatTick(y))
	}
	if p.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n",
			marginLeft+int(plotW/2), h-10, escape(p.XLabel))
	}
	if p.YLabel != "" {
		fmt.Fprintf(&b, `<text x="15" y="%d" text-anchor="middle" transform="rotate(-90 15 %d)">%s</text>`+"\n",
			marginTop+int(plotH/2), marginTop+int(plotH/2), escape(p.YLabel))
	}
	// Series.
	for i, s := range p.Series {
		color := plotColors[i%len(plotColors)]
		if p.Scatter {
			for _, pt := range s.Points {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2" fill="%s"/>`+"\n",
					sx(pt.T.Seconds()), sy(pt.V), color)
			}
		} else if len(s.Points) > 0 {
			var path strings.Builder
			for j, pt := range s.Points {
				cmd := "L"
				if j == 0 {
					cmd = "M"
				}
				fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, sx(pt.T.Seconds()), sy(pt.V))
			}
			fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
				path.String(), color)
		}
		// Legend.
		ly := marginTop + 15*i
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			w-marginRight-120, ly, w-marginRight-100, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" dominant-baseline="middle">%s</text>`+"\n",
			w-marginRight-95, ly, escape(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func formatTick(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 10000:
		return fmt.Sprintf("%.0fk", v/1000)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// XYSeries builds a Series from arbitrary (x, y) pairs by encoding x
// as seconds — used for reservation-sweep plots where the x axis is
// bandwidth, not time.
func XYSeries(name string, xs, ys []float64) Series {
	s := Series{Name: name}
	for i := range xs {
		if i < len(ys) {
			s.Points = append(s.Points, Point{T: time.Duration(xs[i] * float64(time.Second)), V: ys[i]})
		}
	}
	return s
}
