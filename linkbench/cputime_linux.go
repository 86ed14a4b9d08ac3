package main

import (
	"syscall"
	"unsafe"
)

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the calling OS thread's CPU time in nanoseconds. It is
// meaningful across an interval only on a goroutine locked to its thread.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// threadID identifies the calling OS thread.
func threadID() int { return syscall.Gettid() }
