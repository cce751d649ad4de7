package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// The host's speed drifts with its neighbours' load. On a shared
// 2-vCPU host, ten runs of one unchanged simulation read CPU times
// from 1.48 to 2.33 s over a few minutes, and a fixed loop run between
// the simulation's steps slowed with it. So every pass runs such a
// loop, the reference loop, in short slices between its steps, and the
// end-to-end times are the pass's CPU times scaled by how much slower
// or faster than refSliceNs its slices ran: times on a host of fixed
// speed.
//
// The loop works two binary-heap event queues on integer keys, the
// shape of the simulator's own event loop, for about equal time each:
// a small one that stays in the nearest caches and a 2 MB one that
// does not. Most workloads slowed by more than a loop on the small
// queue alone, since the neighbours take cache as well as cycles.
// No loop matches every workload, but in two busy trials the pair's
// worst spread over the workloads was the lowest: 13.5%, against 17.0%
// for the small queue alone and 13.8% for the large one. A pointer
// chase over 8 MB did no better. The loop's memory lies outside the Go heap and it
// allocates nothing, so the program's garbage collector neither sees
// nor reaches it, and it is the benchmark's own code, which a change
// to the simulator leaves alone.
const (
	// refSliceNs is the CPU time of one slice on the reference host:
	// about what a slice took on the 2-vCPU development host while
	// its neighbours were quiet.
	refSliceNs = 110_000
	refSmall   = 1 << 12 // keys in the small queue
	refLarge   = 1 << 18 // keys in the large queue
	// Pops and pushes on each queue in one slice.
	refSmallRounds = 700
	refLargeRounds = 200
	// refEvery is how many timed operations run between slices; one
	// more slice runs before each point's set-up.
	refEvery = 32
)

// refLoop is the reference loop's state.
type refLoop struct {
	small, large refQueue
	x            uint64 // generator state
}

// refQueue is a binary min-heap of keys.
type refQueue []uint64

func newRefLoop() *refLoop {
	l := &refLoop{x: 1}
	l.small = l.fill(refSmall)
	l.large = l.fill(refLarge)
	return l
}

// fill returns a heap of n keys drawn from the generator. The heap
// lives outside the Go heap: 2 MB more of live data would make the
// collector run less often and change the memory the workload reads
// as using.
func (l *refLoop) fill(n int) refQueue {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	q := refQueue(unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n))
	for i := range q {
		q[i] = l.next()
	}
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return q
}

// next draws a key increment from a fixed linear congruential
// sequence.
func (l *refLoop) next() uint64 {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	return l.x >> 40
}

// down restores the heap order below i.
func (q refQueue) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if c+1 < len(q) && q[c+1] < q[c] {
			c++
		}
		if q[i] <= q[c] {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// hold pops the earliest key and pushes one a random interval later,
// rounds times.
func (l *refLoop) hold(q refQueue, rounds int) {
	for range rounds {
		q[0] += l.next()
		q.down(0)
	}
}

// slice runs one slice of the loop and returns the thread CPU time it
// took. The goroutine stays on its thread throughout, so the thread's
// clock counts this work and nothing else.
func (l *refLoop) slice() int64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUNow()
	l.hold(l.small, refSmallRounds)
	l.hold(l.large, refLargeRounds)
	return threadCPUNow() - t0
}

const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuNow is the CPU time, in nanoseconds, that all of the process's
// threads have used so far. Unlike wall time it leaves out the time
// the process waits for a CPU: to other processes and, on a virtual
// machine whose kernel accounts steal time, to the hypervisor.
func cpuNow() int64 { return clockNs(clockProcessCPUTime) }

// threadCPUNow is the CPU time the calling thread has used so far.
func threadCPUNow() int64 { return clockNs(clockThreadCPUTime) }

func clockNs(clock uintptr) int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return ts.Nano()
}
