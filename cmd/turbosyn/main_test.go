package main

import (
	"flag"
	"io"
	"testing"
	"time"
)

// modeFlagSet declares the flags checkModeFlags inspects, with the types
// main gives them, so argument lists parse the way they do on the command
// line.
func modeFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("turbosyn", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, name := range []string{"v", "log-json"} {
		fs.Bool(name, false, "")
	}
	for _, name := range []string{"k", "j", "repeat", "priority"} {
		fs.Int(name, 0, "")
	}
	for _, name := range []string{"o", "server", "tenant", "decomp-cache", "cpuprofile", "memprofile", "trace", "metrics-addr"} {
		fs.String(name, "", "")
	}
	return fs
}

func TestCheckModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		// Local mode with its own flags, including the benchmark's invocation.
		{[]string{"-j", "0", "-o", "out.blif", "in.blif"}, ""},
		{[]string{"-repeat", "3", "-trace", "t.json", "-v", "in.blif"}, ""},
		// Client mode with the submission flags it forwards.
		{[]string{"-server", "http://localhost:1", "-tenant", "a", "-priority", "2", "-k", "4", "in.blif"}, ""},
		// Local-only flags are refused with -server, even at their defaults.
		{[]string{"-server", "http://localhost:1", "-trace", "t.json", "x.blif"},
			"-trace: not supported with -server (local synthesis only)"},
		{[]string{"-server", "http://localhost:1", "-repeat", "5", "-v", "-j", "1", "x.blif"},
			"-j, -repeat, -v: not supported with -server (local synthesis only)"},
		{[]string{"-server", "http://localhost:1", "-metrics-addr", ":0", "-decomp-cache", "d", "-log-json", "-cpuprofile", "c", "-memprofile", "m", "x.blif"},
			"-cpuprofile, -decomp-cache, -log-json, -memprofile, -metrics-addr: not supported with -server (local synthesis only)"},
		// Client-only flags are refused without -server.
		{[]string{"-tenant", "a", "x.blif"}, "-tenant: supported only with -server"},
		{[]string{"-priority", "0", "-tenant", "", "x.blif"}, "-priority, -tenant: supported only with -server"},
	} {
		fs := modeFlagSet()
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := checkModeFlags(fs.Visit, fs.Lookup("server").Value.String() != "")
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%v: got %q, want %q", tc.args, got, tc.want)
		}
	}
}

func TestCheckRanges(t *testing.T) {
	for _, tc := range []struct {
		repeat  int
		timeout time.Duration
		want    string // "" = accepted
	}{
		{1, 0, ""},
		{3, 150 * time.Millisecond, ""},
		{0, 0, "-repeat 0: must be at least 1"},
		// A negative -timeout would run with no limit locally and send a
		// negative timeout_ms in -server mode.
		{1, -time.Second, "-timeout -1s: must not be negative (0 = no limit)"},
		{1, -time.Nanosecond, "-timeout -1ns: must not be negative (0 = no limit)"},
	} {
		got := ""
		if err := checkRanges(tc.repeat, tc.timeout); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("repeat %d, timeout %v: got %q, want %q", tc.repeat, tc.timeout, got, tc.want)
		}
	}
}
