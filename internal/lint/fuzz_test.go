package lint

import (
	"slices"
	"strings"
	"testing"
)

// FuzzAllowParse hammers the //dtlint:allow grammar: arbitrary comment
// text must never panic the parser, and every successful parse must obey
// the structural invariants the suppression index and the framework
// diagnostics rely on.
func FuzzAllowParse(f *testing.F) {
	seeds := []string{
		"//dtlint:allow nondeterm: the one seeded root source",
		"//dtlint:allow alpha,beta: two analyzers at once",
		"//dtlint:allow maporder: fixpoint, order-insensitive",
		"//dtlint:allow",
		"//dtlint:allow hotalloc:",
		"//dtlint:allow : reason with no name",
		"//dtlint:allowance is not an annotation",
		"// plain comment",
		"//dtlint:hotpath",
		"//dtlint:allow a-b: hyphenated name before colon",
		"//dtlint:allow a--b",
		"//\tdtlint:allow simtime\t:\ttabs everywhere",
		"//dtlint:allow x: reason: with: colons",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		names, reason, ok := parseAllowComment(text)
		if !ok {
			if len(names) != 0 || reason != "" {
				t.Fatalf("ok=false must return empty parts, got names=%q reason=%q", names, reason)
			}
			return
		}
		// Anything recognized as an annotation really contains the marker.
		if !strings.Contains(text, allowMarker) {
			t.Fatalf("parsed %q as an annotation without the marker", text)
		}
		for _, n := range names {
			if n == "" || n != strings.TrimSpace(n) {
				t.Fatalf("name %q not trimmed/non-empty in %q", n, text)
			}
			if strings.Contains(n, ",") {
				t.Fatalf("name %q contains the list separator", n)
			}
		}
		if reason != strings.TrimSpace(reason) {
			t.Fatalf("reason %q not trimmed", reason)
		}
		// Round trip: re-rendering a well-formed annotation in canonical
		// form must parse back to the same parts.
		if len(names) > 0 && reason != "" {
			canon := "//" + allowMarker + " " + strings.Join(names, ",") + ": " + reason
			n2, r2, ok2 := parseAllowComment(canon)
			if !ok2 || !slices.Equal(n2, names) || r2 != reason {
				t.Fatalf("round trip of %q: got names=%q reason=%q ok=%v, want names=%q reason=%q",
					canon, n2, r2, ok2, names, reason)
			}
		}
	})
}
