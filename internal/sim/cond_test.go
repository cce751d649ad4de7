package sim

import (
	"testing"
	"time"
)

func TestCondSignalWakesOneFIFO(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var woken []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Spawn(name, func(ctx *Ctx) {
			c.Wait(ctx)
			woken = append(woken, name)
		})
	}
	k.After(time.Second, func() { c.Signal() })
	k.After(2*time.Second, func() { c.Signal() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woken) != 2 || woken[0] != "w1" || woken[1] != "w2" {
		t.Fatalf("woken = %v, want [w1 w2]", woken)
	}
	if c.Waiting() != 1 {
		t.Fatalf("waiting = %d, want 1", c.Waiting())
	}
}

func TestCondBroadcast(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	n := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(ctx *Ctx) {
			c.Wait(ctx)
			n++
		})
	}
	k.After(time.Second, func() { c.Broadcast() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woken = %d, want 5", n)
	}
}

func TestCondSignalNoWaiters(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	if c.Signal() {
		t.Fatal("Signal with no waiters should report false")
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var ok1, ok2 bool
	var at1, at2 time.Duration
	k.Spawn("timeout", func(ctx *Ctx) {
		ok1 = c.WaitTimeout(ctx, time.Second)
		at1 = ctx.Now()
	})
	k.Spawn("signalled", func(ctx *Ctx) {
		ctx.Sleep(2 * time.Second)
		ok2 = c.WaitTimeout(ctx, 10*time.Second)
		at2 = ctx.Now()
	})
	k.After(3*time.Second, func() { c.Signal() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 || at1 != time.Second {
		t.Fatalf("waiter 1: ok=%v at=%v, want timeout at 1s", ok1, at1)
	}
	if !ok2 || at2 != 3*time.Second {
		t.Fatalf("waiter 2: ok=%v at=%v, want signal at 3s", ok2, at2)
	}
}

// TestCondQueueNeverDraining keeps a Cond's queue non-empty for a
// thousand signals, with a timed-out waiter leaving from the middle
// every round: wake order stays FIFO and the head-indexed queue reuses
// its backing array instead of growing.
func TestCondQueueNeverDraining(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var woken []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(ctx *Ctx) {
			for {
				c.Wait(ctx)
				woken = append(woken, name)
			}
		})
	}
	timeouts := 0
	// "t" joins at 0.5 s and times out at every half second in
	// between signals, never reaching the head of the queue.
	k.Spawn("t", func(ctx *Ctx) {
		ctx.Sleep(time.Second / 2)
		for !c.WaitTimeout(ctx, time.Second) {
			timeouts++
		}
	})
	const rounds = 1000
	for i := 1; i <= rounds; i++ {
		k.At(time.Duration(i)*time.Second, PrioNormal, func() { c.Signal() })
	}
	if err := k.RunUntil(rounds * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, name := range woken {
		if want := string(rune('a' + i%3)); name != want {
			t.Fatalf("wake %d went to %s, want %s (order %v...)", i, name, want, woken[:i+1])
		}
	}
	if len(woken) != rounds || timeouts != rounds-1 {
		t.Fatalf("woken %d, timeouts %d, want %d and %d", len(woken), timeouts, rounds, rounds-1)
	}
	if n := cap(c.waiters); n > 8 {
		t.Fatalf("queue backing array grew to %d for at most 4 waiters", n)
	}
}

func TestCondWaitTimeoutZero(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	ok := true
	k.Spawn("p", func(ctx *Ctx) { ok = c.WaitTimeout(ctx, 0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("zero timeout should report false immediately")
	}
}

func TestMailboxFIFO(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	var got []int
	k.Spawn("recv", func(ctx *Ctx) {
		for i := 0; i < 3; i++ {
			v, ok := m.Recv(ctx)
			if !ok {
				t.Error("unexpected close")
				return
			}
			got = append(got, v.(int))
		}
	})
	k.After(time.Second, func() {
		m.Send(1)
		m.Send(2)
		m.Send(3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestMailboxClose(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	m.Send(42)
	m.Close()
	var vals []any
	var oks []bool
	k.Spawn("recv", func(ctx *Ctx) {
		for i := 0; i < 2; i++ {
			v, ok := m.Recv(ctx)
			vals = append(vals, v)
			oks = append(oks, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !oks[0] || vals[0].(int) != 42 {
		t.Fatalf("first recv = %v/%v, want 42/true", vals[0], oks[0])
	}
	if oks[1] {
		t.Fatal("second recv should report closed")
	}
}

func TestMailboxCloseWakesBlockedReceiver(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	done := false
	k.Spawn("recv", func(ctx *Ctx) {
		_, ok := m.Recv(ctx)
		if ok {
			t.Error("expected closed")
		}
		done = true
	})
	k.After(time.Second, func() { m.Close() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("receiver never woke")
	}
}

func TestMailboxTryRecv(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	if _, ok := m.TryRecv(); ok {
		t.Fatal("TryRecv on empty should fail")
	}
	m.Send(7)
	if len(m.items) != 1 {
		t.Fatalf("len = %d, want 1", len(m.items))
	}
	v, ok := m.TryRecv()
	if !ok || v.(int) != 7 {
		t.Fatalf("TryRecv = %v/%v, want 7/true", v, ok)
	}
}

func TestMailboxSendAfterClosePanics(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Send after Close")
		}
	}()
	m.Send(1)
}

func TestMailboxMultipleReceiversFIFO(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	var got []string
	for _, name := range []string{"r1", "r2"} {
		name := name
		k.Spawn(name, func(ctx *Ctx) {
			v, ok := m.Recv(ctx)
			if !ok {
				return
			}
			got = append(got, name+":"+v.(string))
		})
	}
	k.After(time.Second, func() { m.Send("a") })
	k.After(2*time.Second, func() { m.Send("b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "r1:a" || got[1] != "r2:b" {
		t.Fatalf("got %v, want [r1:a r2:b]", got)
	}
}
