package main

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"neo/internal/cluster"
	"neo/internal/serve"
)

// flagRE matches a documented flag name: a backticked `-name` token.
var flagRE = regexp.MustCompile("`-([a-z0-9-]+)`")

// documentedFlags returns the flags named in the first cell of every table
// row of the OPERATIONS.md section under heading.
func documentedFlags(t *testing.T, doc, heading string) map[string]bool {
	t.Helper()
	_, rest, ok := strings.Cut(doc, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("OPERATIONS.md has no %q section", heading)
	}
	section, _, _ := strings.Cut(rest, "\n## ")
	out := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`-") {
			continue
		}
		for _, m := range flagRE.FindAllStringSubmatch(cells[1], -1) {
			out[m[1]] = true
		}
	}
	return out
}

// TestFlagTablesMatchRegisteredFlags: OPERATIONS.md's flag tables list
// exactly the flags the daemons register — a flag added, renamed or removed
// without its table row (or the reverse) fails here, so the tables cannot
// rot. neo-serve (all three modes) is read off this package's registerFlags;
// neo-trainer registers the same two calls its main makes.
func TestFlagTablesMatchRegisteredFlags(t *testing.T) {
	raw, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	serveFlags := flag.NewFlagSet("neo-serve", flag.ContinueOnError)
	registerFlags(serveFlags)
	trainerFlags := flag.NewFlagSet("neo-trainer", flag.ContinueOnError)
	(&serve.Daemon{}).RegisterFlags(trainerFlags)
	cluster.RegisterTrainerFlags(trainerFlags, &cluster.TrainerConfig{}, &cluster.RolloutConfig{})

	for heading, fs := range map[string]*flag.FlagSet{
		"## neo-serve flags":   serveFlags,
		"## neo-trainer flags": trainerFlags,
	} {
		documented := documentedFlags(t, string(raw), heading)
		var problems []string
		fs.VisitAll(func(f *flag.Flag) {
			if !documented[f.Name] {
				problems = append(problems, "-"+f.Name+" is registered but has no row")
			}
			delete(documented, f.Name)
		})
		for name := range documented {
			problems = append(problems, "-"+name+" has a row but is not registered")
		}
		sort.Strings(problems)
		for _, p := range problems {
			t.Errorf("OPERATIONS.md %q: %s", heading, p)
		}
	}
}
