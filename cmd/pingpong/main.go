// Command pingpong runs the §5.2 ping-pong benchmark standalone: two
// MPI ranks exchanging fixed-size messages across the simulated
// testbed, with optional contention and a premium reservation.
//
//	pingpong -msg 120 -reserve 8000 -contend -dur 20s
//
// measures one 120 Kb message size at one 8 Mb/s one-way reservation.
// A -sweep flag reproduces one full Figure 5 curve instead.
package main

import (
	"flag"
	"fmt"
	"time"

	"mpichgq/internal/experiments"
	"mpichgq/internal/garnet"
	"mpichgq/internal/units"
)

func main() {
	msgKb := flag.Int("msg", 120, "message size in kilobits")
	reserveKb := flag.Int("reserve", 0, "one-way reservation in Kb/s (0 = best effort)")
	contend := flag.Bool("contend", true, "run the UDP contention generator")
	dur := flag.Duration("dur", 20*time.Second, "measurement duration (virtual time)")
	sweep := flag.Bool("sweep", false, "sweep reservations for this message size (one Figure 5 curve)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	size := units.ByteSize(*msgKb) * units.Kbit
	if *sweep {
		fmt.Printf("ping-pong sweep: %d Kb messages, contention=%v\n", *msgKb, *contend)
		fmt.Printf("%-14s %s\n", "reservation", "one-way throughput")
		for _, rsv := range experiments.Figure5Reservations {
			tput := run(*seed, size, rsv, *contend, *dur)
			fmt.Printf("%-14v %v\n", rsv, tput)
		}
		return
	}
	rsv := units.BitRate(*reserveKb) * units.Kbps
	tput := run(*seed, size, rsv, *contend, *dur)
	fmt.Printf("message %d Kb, reservation %v, contention %v: one-way throughput %v\n",
		*msgKb, rsv, *contend, tput)
}

func run(seed int64, size units.ByteSize, rsv units.BitRate, contend bool, dur time.Duration) units.BitRate {
	tb := garnet.New(seed)
	defer tb.Close()
	p := experiments.StartPingPong(experiments.Config{}, tb, size, rsv, contend, dur)
	if err := tb.K.RunUntil(dur); err != nil {
		panic(err)
	}
	return p.Result().Throughput
}
