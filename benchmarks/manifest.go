package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// manifest records the machine and build behind every number, so a
// figure pasted out of context still says where it came from.
type manifest struct {
	Seed        int64   `json:"seed"`
	Quick       bool    `json:"quick"`
	Repetitions int     `json:"repetitions,omitempty"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPUModel    string  `json:"cpu_model"`
	VCSRevision string  `json:"vcs_revision"`
	VCSModified string  `json:"vcs_modified"`
	Start       string  `json:"start"`
	TotalWallS  float64 `json:"total_wall_s"`
	// Undersubscribed is set when the machine has fewer than two CPUs:
	// fabric_k4_shards2 and sweep_w2 then measure time-slicing, not
	// parallelism. They still run, and say so.
	Undersubscribed bool `json:"undersubscribed,omitempty"`
}

func newManifest(seed int64, quick bool, start time.Time) manifest {
	m := manifest{
		Seed:            seed,
		Quick:           quick,
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		CPUModel:        cpuModel(),
		VCSRevision:     "unknown",
		VCSModified:     "unknown",
		Start:           start.UTC().Format(time.RFC3339),
		Undersubscribed: runtime.NumCPU() < 2,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value
			}
		}
	}
	return m
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
