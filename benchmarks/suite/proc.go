package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime;
// 100 on every Linux the Go toolchain targets.
const clockTick = 100

// childCPU sums the user+system CPU time consumed so far by this
// process's live children whose command name is comm, from
// /proc/<pid>/stat. It returns 0 where /proc is not available: the
// per-layer CPU split is then simply not resolved.
func childCPU(comm string) time.Duration {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	self := os.Getpid()
	var ticks int64
	for _, ent := range entries {
		if _, err := strconv.Atoi(ent.Name()); err != nil {
			continue
		}
		raw, err := os.ReadFile("/proc/" + ent.Name() + "/stat")
		if err != nil {
			continue // exited between ReadDir and here
		}
		// pid (comm) state ppid ... utime stime: comm may hold spaces, so
		// split at the last ')'.
		open, shut := bytes.IndexByte(raw, '('), bytes.LastIndexByte(raw, ')')
		if open < 0 || shut < open || string(raw[open+1:shut]) != comm {
			continue
		}
		f := bytes.Fields(raw[shut+1:])
		// f[0]=state f[1]=ppid ... f[11]=utime f[12]=stime
		if len(f) < 13 {
			continue
		}
		if ppid, _ := strconv.Atoi(string(f[1])); ppid != self {
			continue
		}
		ut, _ := strconv.ParseInt(string(f[11]), 10, 64)
		st, _ := strconv.ParseInt(string(f[12]), 10, 64)
		ticks += ut + st
	}
	return time.Duration(ticks) * time.Second / clockTick
}
