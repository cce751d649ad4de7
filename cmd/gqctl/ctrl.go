package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"mpichgq/internal/experiments"
	"mpichgq/internal/gara"
	"mpichgq/internal/sim"
	"mpichgq/internal/trace"
)

// ctrlCmd implements "gqctl ctrl": run the ctrl scenario
// (experiments.StartCtrl: two-domain co-reservations over a lossy
// control plane with one RM crash/restart, under a tenant reservation
// storm) and dump the control-plane health view an operator would
// consult — per-RM breaker state, RPC retry/timeout counters,
// outstanding prepare leases, journal positions, and the
// overload-control surface (admission queue depth, brownout level,
// shed counters by reason).
func ctrlCmd(args []string) {
	fs := flag.NewFlagSet("gqctl ctrl", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	until := fs.Duration("until", 20*time.Second, "virtual time to run the workload for")
	must(fs.Parse(args))

	k := sim.New(*seed)
	defer k.Close()
	c := experiments.StartCtrl(k, *until)
	must(k.RunUntil(*until))
	plane := c.Plane

	fmt.Printf("=== control plane at t=%v (seed %d) ===\n", k.Now(), *seed)
	fmt.Printf("co-reservations: %d succeeded, %d failed\n\n", c.OK, c.Failed)

	reg := k.Metrics()
	cv := func(name, rm string) int64 {
		v, _ := reg.CounterValue(name, "rm", rm)
		return v
	}
	t := trace.Table{Headers: []string{
		"domain", "breaker", "fails", "trips",
		"attempts", "retries", "timeouts", "deadline-fails", "rejects",
		"crashes", "leases", "journal-seq",
	}}
	for _, name := range plane.Names() {
		br := plane.Breaker(name)
		rm := c.RMs[name]
		t.Add(name,
			br.State().String(), fmt.Sprint(br.Failures()),
			fmt.Sprint(cv("ctrl_breaker_trips_total", name)),
			fmt.Sprint(cv("ctrl_rpc_attempts_total", name)),
			fmt.Sprint(cv("ctrl_rpc_retries_total", name)),
			fmt.Sprint(cv("ctrl_rpc_timeouts_total", name)),
			fmt.Sprint(cv("ctrl_rpc_failures_total", name)),
			fmt.Sprint(cv("ctrl_rpc_breaker_rejects_total", name)),
			fmt.Sprint(cv("netrm_crashes_total", name)),
			fmt.Sprint(len(rm.Leases())),
			fmt.Sprint(rm.Journal.LastSeq()))
	}
	fmt.Print(t.String())

	// The overload-control surface: queue state and why requests were
	// turned away, per domain.
	shedReasons := []string{"full", "codel", "brownout", "expired", "crash", "evict"}
	ot := trace.Table{Headers: append([]string{
		"domain", "queue-depth", "brownout", "served",
	}, shedReasons...)}
	for _, name := range plane.Names() {
		srv := plane.Conn(name).Server()
		row := []string{
			name,
			fmt.Sprint(srv.QueueDepth()),
			fmt.Sprint(srv.BrownoutLevel()),
			fmt.Sprint(cv("admission_served_total", name)),
		}
		for _, reason := range shedReasons {
			v, _ := reg.CounterValue("admission_shed_total", "rm", name, "reason", reason)
			row = append(row, fmt.Sprint(v))
		}
		ot.Add(row...)
	}
	fmt.Println()
	fmt.Print(ot.String())
	st := c.Storm.Stats()
	fmt.Printf("\nstorm clients (dom1, %g req/s offered): %d offered, %d admitted, "+
		"%d overloaded, %d deadline-expired, %d refused\n",
		c.Storm.Rate, st.Offered, st.OK, st.Overloads, st.Deadlines, st.Refused)
	fmt.Printf("admitted by class: premium %d/%d, normal %d/%d, best-effort %d/%d\n",
		st.OKByClass[gara.ClassPremium], st.OfferedByClass[gara.ClassPremium],
		st.OKByClass[gara.ClassNormal], st.OfferedByClass[gara.ClassNormal],
		st.OKByClass[gara.ClassBestEffort], st.OfferedByClass[gara.ClassBestEffort])

	for _, name := range plane.Names() {
		leases := c.RMs[name].Leases()
		if len(leases) == 0 {
			continue
		}
		ids := make([]uint64, 0, len(leases))
		for id := range leases {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Printf("\noutstanding leases on %s:\n", name)
		for _, id := range ids {
			fmt.Printf("  reservation %d expires at t=%v\n", id, leases[id])
		}
	}
}
