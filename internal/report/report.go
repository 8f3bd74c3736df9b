// Package report owns the baseline files the measurement commands keep
// in the repository (BENCH_baseline.json and its siblings): one layout,
// one way to add a snapshot.
package report

import (
	"encoding/json"
	"fmt"
	"os"
)

// File is the on-disk layout: the latest snapshot plus every snapshot it
// replaced, oldest first, so a trajectory stays in-repo. Schema names
// the command and version that wrote it.
type File[S any] struct {
	Schema  string `json:"schema"`
	Current *S     `json:"current"`
	History []S    `json:"history,omitempty"`
}

// Merge writes snap as the file's Current, demoting any previous Current
// to the end of History. A missing file is created; a file written under
// another schema is refused and left untouched, so one command's -o
// cannot rewrite another's baseline.
func Merge[S any](path, schema string, snap *S) error {
	var f File[S]
	if raw, err := os.ReadFile(path); err == nil {
		// Unmarshal fills Schema even when a foreign file's snapshots do
		// not fit S, so the mismatch is what gets reported.
		err := json.Unmarshal(raw, &f)
		if f.Schema != "" && f.Schema != schema {
			return fmt.Errorf("%s has schema %q, want %q", path, f.Schema, schema)
		}
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if f.Current != nil {
		f.History = append(f.History, *f.Current)
	}
	f.Schema = schema
	f.Current = snap
	raw, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
