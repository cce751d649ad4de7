package experiments

import (
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/garnet"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

// Figure6Point is one (reservation, achieved) sample.
type Figure6Point struct {
	Reservation units.BitRate
	Achieved    units.BitRate
}

// Figure6Result holds one achieved-vs-reservation curve per offered
// rate.
type Figure6Result struct {
	// Offered rates: 400/800/1600/2400 Kb/s (5/10/20/30 KB frames at
	// 10 fps).
	Offered []units.BitRate
	Curves  map[units.BitRate][]Figure6Point
}

// Figure6FrameSizes are the paper's frame sizes at 10 fps.
var Figure6FrameSizes = []units.ByteSize{5 * units.KB, 10 * units.KB, 20 * units.KB, 30 * units.KB}

// RunFigure6 reproduces Figure 6: the visualization application
// attempting 400/800/1600/2400 Kb/s under contention, as a function
// of reservation. "Achieved throughput increases with reservation
// until the reservation is 'adequate'. However ... the performance at
// lower reservations is significantly worse than we would expect from
// simple scaling ... due to TCP congestion control strategies. We
// also see that we require a reservation value of around 1.06 of the
// sending rate, because of TCP packet overheads."
func RunFigure6(cfg Config) Figure6Result {
	cfg = cfg.withDefaults()
	res := Figure6Result{Curves: make(map[units.BitRate][]Figure6Point)}
	dur := cfg.scale(30 * time.Second)
	// Flatten the (frame, reservation) grid so the points fan out
	// across workers like the other sweep figures; every point runs
	// its own kernel at the same seed as before, and reassembly below
	// preserves the sequential order exactly. The reservation fracs
	// bracket the offered rate: well below, slightly below, at
	// ~1.06x, and above.
	fracs := []float64{0.25, 0.5, 0.75, 0.9, 1.0, 1.06, 1.25, 1.5}
	type job struct {
		frame units.ByteSize
		rsv   units.BitRate
	}
	var jobs []job
	for _, frame := range Figure6FrameSizes {
		offered := units.RateOf(frame*10, time.Second)
		res.Offered = append(res.Offered, offered)
		for _, frac := range fracs {
			jobs = append(jobs, job{frame, units.BitRate(float64(offered) * frac)})
		}
	}
	achieved := Sweep(cfg.Parallel, len(jobs), func(i int) units.BitRate {
		return dvisAchieved(cfg, jobs[i].frame, 10, jobs[i].rsv, dur)
	})
	for i, j := range jobs {
		offered := units.RateOf(j.frame*10, time.Second)
		res.Curves[offered] = append(res.Curves[offered], Figure6Point{Reservation: j.rsv, Achieved: achieved[i]})
	}
	return res
}

// dvisAchieved measures the visualization app's achieved rate with a
// given reservation under standard contention.
func dvisAchieved(cfg Config, frame units.ByteSize, fps int, reservation units.BitRate, dur time.Duration) units.BitRate {
	tb := garnet.New(cfg.Seed)
	defer tb.Close()
	cfg.blast(tb, 0, 0)
	d := &DVis{
		FrameSize: frame,
		FPS:       fps,
		Duration:  dur,
	}
	if reservation > 0 {
		d.Attr = &gq.QosAttribute{Class: gq.Premium, Bandwidth: reservation}
		// Sweep the raw reservation: the 1.06 requirement must
		// emerge from TCP, not be applied by the agent.
		d.AgentMutate = func(a *gq.Agent) { a.OverheadFactor = 1.0 }
	}
	return d.Run(tb).Achieved
}

// Figure6Table renders the curves.
func Figure6Table(r Figure6Result) trace.Table {
	t := trace.Table{
		Title:   "Figure 6: visualization app achieved bandwidth (Kb/s) vs reservation (Kb/s)",
		Headers: []string{"res/offered"},
	}
	for _, o := range r.Offered {
		t.Headers = append(t.Headers, fmt.Sprintf("attempting %.0f", o.Kbps()))
	}
	n := len(r.Curves[r.Offered[0]])
	for i := 0; i < n; i++ {
		frac := r.Curves[r.Offered[0]][i].Reservation.Kbps() / r.Offered[0].Kbps()
		row := []string{fmt.Sprintf("%.2fx", frac)}
		for _, o := range r.Offered {
			p := r.Curves[o][i]
			row = append(row, fmt.Sprintf("%.0f", p.Achieved.Kbps()))
		}
		t.Add(row...)
	}
	return t
}
