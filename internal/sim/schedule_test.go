package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/schedule_digests.txt from this build")

const (
	scheduleSeeds       = 50
	scheduleDigestsFile = "schedule_digests.txt"
)

// Operations a generated process program is made of.
const (
	opSleep = iota
	opYield
	opWait
	opWaitTimeout
	opSignal
	opBroadcast
	opLock
	opSend
	opRecv
	opRecvTimeout
	opSpawnChild
	numOps
)

// step is one generated action. c selects one of the world's two
// Conds, d is a virtual duration, and child is the program of a
// process that opSpawnChild starts.
type step struct {
	op    int
	c     int
	d     time.Duration
	child []step
}

// program is a generated process: a name, a start time and its steps.
type program struct {
	name  string
	start time.Duration
	steps []step
}

// world is the shared state a generated schedule runs against; every
// (virtual time, process, action) triple is written into h.
type world struct {
	k     *Kernel
	h     hash.Hash
	conds [2]*Cond
	mu    *Mutex
	box   *Mailbox
	sent  int
}

func (w *world) rec(who, format string, args ...any) {
	fmt.Fprintf(w.h, "%d %s %s\n", w.k.Now(), who, fmt.Sprintf(format, args...))
}

// genSteps draws n steps. nested marks a child's program, where
// opSpawnChild becomes opSignal: children spawn no grandchildren.
func genSteps(r *RNG, n int, nested bool) []step {
	steps := make([]step, n)
	for i := range steps {
		s := step{op: r.Intn(numOps), c: r.Intn(2), d: time.Duration(r.Intn(8)) * time.Millisecond}
		if s.op == opSpawnChild {
			if nested {
				s.op = opSignal
			} else {
				s.child = genSteps(r, 1+r.Intn(4), true)
			}
		}
		steps[i] = s
	}
	return steps
}

// genPrograms draws the process programs for one seed.
func genPrograms(seed int64) []program {
	r := NewRNG(seed)
	progs := make([]program, 3+r.Intn(6))
	for i := range progs {
		progs[i] = program{
			name:  "p" + strconv.Itoa(i),
			start: time.Duration(r.Intn(5)) * time.Millisecond,
			steps: genSteps(r, 8+r.Intn(25), false),
		}
	}
	return progs
}

func (w *world) run(ctx *Ctx, steps []step) {
	name := ctx.p.name
	for i, s := range steps {
		c := w.conds[s.c]
		switch s.op {
		case opSleep:
			w.rec(name, "sleep %v", s.d)
			ctx.Sleep(s.d)
		case opYield:
			w.rec(name, "yield")
			ctx.Sleep(0)
		case opWait:
			w.rec(name, "wait c%d", s.c)
			c.Wait(ctx)
		case opWaitTimeout:
			w.rec(name, "waittimeout c%d %v", s.c, s.d)
			w.rec(name, "woken=%v", c.WaitTimeout(ctx, s.d))
		case opSignal:
			w.rec(name, "signal c%d=%v", s.c, c.Signal())
		case opBroadcast:
			w.rec(name, "broadcast c%d waiting=%d", s.c, c.Waiting())
			c.Broadcast()
		case opLock:
			w.rec(name, "lock")
			w.mu.Lock(ctx)
			w.rec(name, "locked")
			ctx.Sleep(s.d)
			w.mu.Unlock()
		case opSend:
			w.sent++
			w.rec(name, "send m%d", w.sent)
			w.box.Send(w.sent)
		case opRecv:
			w.rec(name, "recv")
			v, ok := w.box.Recv(ctx)
			w.rec(name, "got %v %v", v, ok)
		case opRecvTimeout:
			w.rec(name, "recvtimeout %v", s.d)
			v, ok := recvTimeout(ctx, w.box, s.d)
			w.rec(name, "got %v %v", v, ok)
		case opSpawnChild:
			child := s.child
			p := ctx.SpawnChild(fmt.Sprintf("%s.c%d", name, i), func(ctx *Ctx) { w.run(ctx, child) })
			w.rec(name, "spawn %s", p.name)
		}
	}
	w.rec(name, "exit")
}

// recvTimeout is Mailbox.Recv with a deadline: ok is false if the
// timeout expired or the mailbox closed before an item arrived.
func recvTimeout(ctx *Ctx, m *Mailbox, d time.Duration) (v any, ok bool) {
	deadline := ctx.k.now + d
	for len(m.items) == 0 {
		if m.closed {
			return nil, false
		}
		remain := deadline - ctx.k.now
		if remain <= 0 || !m.cond.WaitTimeout(ctx, remain) {
			if len(m.items) > 0 {
				break
			}
			return nil, false
		}
	}
	v = m.items[0]
	m.items = m.items[1:]
	return v, true
}

// scheduleDigest runs the generated programs for seed and returns the
// hex SHA-256 of every step they took, in order, followed by the
// kernel's final state. A kernel-side ticker broadcasts and feeds the
// mailbox so that waiters keep moving; every third seed adds a process
// that panics mid-run.
func scheduleDigest(seed int64) string {
	k := New(seed)
	w := &world{k: k, h: sha256.New(), mu: NewMutex(k), box: NewMailbox(k)}
	w.conds = [2]*Cond{NewCond(k), NewCond(k)}
	for _, p := range genPrograms(seed) {
		steps := p.steps
		k.SpawnAt(p.start, p.name, func(ctx *Ctx) { w.run(ctx, steps) })
	}
	for i := 1; i <= 30; i++ {
		i := i
		k.At(time.Duration(i)*3*time.Millisecond, PrioNormal, func() {
			w.sent++
			w.rec("kernel", "tick %d broadcast c%d signal c%d=%v send m%d", i, i%2, (i+1)%2, w.conds[(i+1)%2].Signal(), w.sent)
			w.conds[i%2].Broadcast()
			w.box.Send(w.sent)
		})
	}
	if seed%3 == 0 {
		at := time.Duration(20+NewRNG(-seed).Intn(60)) * time.Millisecond
		k.Spawn("boom", func(ctx *Ctx) {
			ctx.Sleep(at)
			w.rec("boom", "panic")
			panic(fmt.Sprintf("boom-%d", seed))
		})
	}
	err := k.Run()
	w.rec("kernel", "end err=%v events=%d pending=%d live=%d blocked=%v", err, k.EventsRun(), k.PendingEvents(), len(k.procs), k.BlockedProcs())
	return hex.EncodeToString(w.h.Sum(nil))
}

// TestScheduleDigests pins the scheduler itself, not one example: for
// 50 seeds of generated process programs mixing every blocking
// primitive, the digest of the full (time, process, action) trace must
// match testdata/schedule_digests.txt. The file was recorded with the
// channel-handoff implementation, so any change to process switching
// that reorders a single step shows up here. -update rewrites it.
func TestScheduleDigests(t *testing.T) {
	path := filepath.Join("testdata", scheduleDigestsFile)
	got := make([]string, scheduleSeeds)
	for i := range got {
		got[i] = scheduleDigest(int64(i + 1))
	}
	if *updateDigests {
		var b strings.Builder
		for i, d := range got {
			fmt.Fprintf(&b, "%d %s\n", i+1, d)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[int64]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var seed int64
		var d string
		if _, err := fmt.Sscan(sc.Text(), &seed, &d); err != nil {
			t.Fatalf("%s: %q: %v", path, sc.Text(), err)
		}
		want[seed] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != scheduleSeeds {
		t.Fatalf("%s has %d seeds, want %d", path, len(want), scheduleSeeds)
	}
	for i, d := range got {
		if seed := int64(i + 1); want[seed] != d {
			t.Errorf("seed %d: schedule digest %s, recorded %s", seed, d, want[seed])
		}
	}
}

// TestScheduleDigestsRepeatable guards the test itself: a digest that
// varied between runs of one build would make the differential
// meaningless.
func TestScheduleDigestsRepeatable(t *testing.T) {
	for _, seed := range []int64{1, 3, 7} {
		if a, b := scheduleDigest(seed), scheduleDigest(seed); a != b {
			t.Fatalf("seed %d: digests differ between runs: %s vs %s", seed, a, b)
		}
	}
}
