package conform

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"dtdctcp/internal/core"
)

func shortGolden(seed int64) Golden {
	d := paperDumbbell(8, 2*time.Millisecond, 6*time.Millisecond)
	d.Seed = seed
	return dumbbellGolden("digest-unit", d.config(core.DCTCP(40, 1.0/16)))
}

// digest fingerprints one golden through the suite's entry point.
func digest(t *testing.T, g Golden) Digest {
	t.Helper()
	ds, err := DigestGoldens(context.Background(), []Golden{g}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds[0]
}

// A digest is a pure function of the scenario: identical for identical
// configurations, different as soon as the seed (hence every RNG draw)
// changes.
func TestDigestSensitivity(t *testing.T) {
	a, b, c := digest(t, shortGolden(1)), digest(t, shortGolden(1)), digest(t, shortGolden(2))
	if a != b {
		t.Fatalf("same scenario, different digests:\n%+v\n%+v", a, b)
	}
	if a.QueueHash == c.QueueHash && a.FlowHash == c.FlowHash && a.StatsHash == c.StatsHash {
		t.Fatalf("different seeds produced identical hashes: %+v", c)
	}
	// The digest must carry real content, not zero values.
	if a.Scenario != "digest-unit" || a.Events == 0 || a.Marks == 0 || a.AckedBytes == 0 || a.QueueSamples == 0 {
		t.Fatalf("empty digest fields: %+v", a)
	}
	if a.QueueHash == "" || a.AlphaHash == "" || a.FlowHash == "" || a.StatsHash == "" {
		t.Fatalf("missing hashes: %+v", a)
	}
}

// Golden files survive a write/read round trip exactly.
func TestGoldenFileRoundTrip(t *testing.T) {
	d := digest(t, shortGolden(7))
	path := filepath.Join(t.TempDir(), "rt.json")
	if err := writeGolden(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := readGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip drift:\n%+v\n%+v", got, d)
	}
	if _, err := readGolden(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing golden file must error")
	}
}
