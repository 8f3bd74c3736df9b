package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestHybridQuickRunIsByteIdentical drives the whole CLI path: a quick
// hybrid/packet pair. -quick fills in only what the command line left
// unset, and the report is a pure function of the flags: a second run is
// byte-identical.
func TestHybridQuickRunIsByteIdentical(t *testing.T) {
	args := []string{"hybrid", "-quick", "-bg", "20"}
	var snap hybridSnapshot
	first := runJSON(t, &snap, args...)
	if second := runJSON(t, new(hybridSnapshot), args...); !bytes.Equal(first, second) {
		t.Fatalf("two runs of %v differ:\n%s\n%s", args, first, second)
	}
	if c := snap.Config; c["bg"] != "20" || c["duration"] != "10ms" {
		t.Fatalf("config %v, want the quick 10 ms horizon with the 20 background flows asked for", c)
	}
	hyb, pkt := snap.Hybrid, snap.Packet
	if hyb == nil || pkt == nil {
		t.Fatal("want a hybrid/packet result pair")
	}
	if hyb.Mode != "hybrid" || pkt.Mode != "packet" {
		t.Fatalf("modes %q/%q, want hybrid/packet", hyb.Mode, pkt.Mode)
	}
	if len(hyb.Digest) != 16 || len(pkt.Digest) != 16 {
		t.Fatalf("digests %q/%q are not 64-bit hex words", hyb.Digest, pkt.Digest)
	}
	if hyb.FgFCTCount == 0 || pkt.FgFCTCount == 0 {
		t.Fatalf("foreground FCTs missing: hybrid %d, packet %d", hyb.FgFCTCount, pkt.FgFCTCount)
	}
	if snap.EventRatio <= 1 {
		t.Fatalf("event ratio %.2f, want > 1 (the hybrid must need fewer events)", snap.EventRatio)
	}
}

func TestHybridRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad proto":    {"-quick", "-protocol", "cubic"},
		"no law":       {"-quick", "-protocol", "reno"},
		"bad config":   {"-bg", "-1"},
		"bad interval": {"-quick", "-rtt", "1s"},
		"unknown arg":  {"-frobnicate"},
	} {
		if err := run(append([]string{"hybrid"}, args...), io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestHybridNegativeGapExits: a negative -fg-gap once panicked with
// "sim: scheduling into the past" at the first foreground completion. The
// command refuses it: exit status 1 and the core: reason on stderr.
func TestHybridNegativeGapExits(t *testing.T) {
	exitsWith(t, "core: FgGap must not be negative", "hybrid", "-quick", "-fg-gap", "-1ms")
}

// TestDumbbellNegativePoolExits: a negative -sb-pool once ran as the
// default pool. The command refuses it: exit status 1 and the core: reason
// on stderr.
func TestDumbbellNegativePoolExits(t *testing.T) {
	exitsWith(t, "core: SharedBuffer.PoolPkts must not be negative", "dumbbell", "-sb-alpha", "1", "-sb-pool", "-5")
}

// TestRefusedDialsExit: each of these once ran rewritten, ran as
// nonsense or died with a stack trace — -g 2 ran the dumbbell at g = 1/16
// and the hybrid's fluid half at g = 2, -k -5 ran as dctcp(K=-5), -k 0
// and -k2 0 ran markers that the analyses called unmarked, a zero -gamma
// panicked in the phantom queue, a NaN or tiny -load overflowed virtual
// time inside the engine, fluid -g 0 integrated senders that ignore ECN,
// and stability -g 2 said only "control: invalid plant". A flow count
// past the 32-bit flow ids would wrap them. Each exits 1 with a reason.
func TestRefusedDialsExit(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"g", "core: G = 2 must be in (0, 1]", []string{"dumbbell", "-g", "2"}},
		{"hybrid_g", "core: G = 2 must be in (0, 1]", []string{"hybrid", "-quick", "-g", "2"}},
		{"fluid_g0", "core: G = 0 must be in (0, 1]", []string{"fluid", "-quick", "-g", "0"}},
		{"fluid_g_neg", "core: G = -1 must be in (0, 1]", []string{"fluid", "-quick", "-g", "-1"}},
		{"fluid_g2", "core: G = 2 must be in (0, 1]", []string{"fluid", "-quick", "-g", "2"}},
		{"stability_g2", "core: G = 2 must be in (0, 1]", []string{"stability", "-g", "2"}},
		{"stability_critical_g0", "core: G = 0 must be in (0, 1]", []string{"stability", "-quick", "-critical", "-g", "0"}},
		{"rto_min", "core: RTOMin = -1ms must be positive", []string{"hybrid", "-quick", "-rto-min", "-1ms"}},
		{"k", "marking thresholds must not be negative", []string{"dumbbell", "-k", "-5"}},
		{"k2", "marking thresholds must not be negative", []string{"dumbbell", "-protocol", "dt-dctcp", "-k2", "-1"}},
		{"k_zero", "core: marking threshold K = 0 must be at least one packet", []string{"dumbbell", "-k", "0"}},
		{"k2_zero", "core: marking threshold K2 = 0 must be at least one packet", []string{"dumbbell", "-protocol", "dt-dctcp", "-k2", "0"}},
		{"gamma", "-gamma 0 must be positive", []string{"dumbbell", "-protocol", "hull", "-gamma", "0"}},
		{"load_nan", "flowgen: load NaN is not finite", []string{"fabric", "-quick", "-load", "NaN"}},
		{"load_inf", "flowgen: load +Inf is not finite", []string{"fabric", "-quick", "-load", "Inf"}},
		{"load_tiny", "flowgen: load 1e-300 puts flow 1 of 80 past", []string{"fabric", "-quick", "-load", "1e-300"}},
		{"flows_ids", "core: Flows = 2147483648 puts flow ids past 2147483647", []string{"fabric", "-quick", "-flows", "2147483648"}},
		{"fg_ids", "core: FgFlows = 2147483648 puts flow ids past 2147483647", []string{"hybrid", "-quick", "-fg", "2147483648"}},
	} {
		t.Run(tc.name, func(t *testing.T) { exitsWith(t, tc.want, tc.args...) })
	}
}

// exitsWith checks that dtsim run with args exits with status 1 and gives
// the reason want on stderr. The test binary reruns the calling test with
// args after "--", where this function runs main instead.
func exitsWith(t *testing.T, want string, args ...string) {
	t.Helper()
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"dtsim"}, args...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^" + t.Name() + "$", "--"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1; stderr:\n%s", err, &stderr)
	}
	if !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q does not give the reason %q", &stderr, want)
	}
}

// TestDefaultsCompleteForegroundAtSpeedAdvantage holds the defaults to
// the headline claim: the run a bare `dtsim hybrid` makes is alive — the
// hybrid's foreground completes transfers — and advances the same
// simulated horizon in at least 10x fewer events than the packet-level
// reference. Event counts are pure functions of the flags, so this pin
// is machine-independent.
func TestDefaultsCompleteForegroundAtSpeedAdvantage(t *testing.T) {
	var snap hybridSnapshot
	runJSON(t, &snap, "hybrid")
	if snap.Hybrid.FgFCTCount == 0 {
		t.Fatalf("default run (%s background flows) completed no foreground transfer", snap.Config["bg"])
	}
	if snap.EventRatio < 10 {
		t.Fatalf("default event ratio %.1fx, want >= 10x", snap.EventRatio)
	}
}
