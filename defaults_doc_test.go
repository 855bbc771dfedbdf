package pond_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pond"
	"pond/internal/cliutil"
)

var updateDefaultsDoc = flag.Bool("update-defaults-doc", false,
	"rewrite docs/DEFAULTS.md from Defaults() and DefaultNotes()")

// renderDefaultsDoc generates docs/DEFAULTS.md from the single source of
// truth: Defaults() for the values, DefaultNotes() for the conditional
// zero-value meanings, and the cliutil registrations for the pondfleet
// flag table. Reflection over the grouped structs means a new field
// shows up here (and fails TestDefaultsDocCurrent) automatically.
func renderDefaultsDoc() string {
	var b strings.Builder
	b.WriteString("# Fleet configuration defaults\n\n")
	b.WriteString("Generated from `pond.Defaults()` and `pond.DefaultNotes()` — the\n")
	b.WriteString("single source of truth behind the struct godoc, the pondfleet usage\n")
	b.WriteString("text, and this file. Regenerate after changing a default:\n\n")
	b.WriteString("```console\n$ go test . -run TestDefaultsDocCurrent -update-defaults-doc\n```\n\n")

	b.WriteString("## Grouped options (`pond.FleetOpts`)\n\n")
	b.WriteString("| Field | JSON key | Default |\n|---|---|---|\n")
	d := pond.Defaults()
	dv := reflect.ValueOf(d)
	dt := dv.Type()
	for i := 0; i < dt.NumField(); i++ {
		group := dt.Field(i)
		if group.Type.Kind() != reflect.Struct {
			continue // Injections
		}
		groupKey := strings.Split(group.Tag.Get("json"), ",")[0]
		gv := dv.Field(i)
		gt := gv.Type()
		for j := 0; j < gt.NumField(); j++ {
			f := gt.Field(j)
			key := strings.Split(f.Tag.Get("json"), ",")[0]
			val := fmt.Sprintf("%v", gv.Field(j).Interface())
			if val == "" {
				val = "(empty)"
			}
			fmt.Fprintf(&b, "| `%s.%s` | `%s.%s` | `%s` |\n",
				group.Name, f.Name, groupKey, key, val)
		}
	}

	b.WriteString("\n## Conditional defaults\n\n")
	b.WriteString("Zero values below are not literal — they derive from other fields at\n")
	b.WriteString("run time (`pond.DefaultNotes()`):\n\n")
	for _, n := range pond.DefaultNotes() {
		fmt.Fprintf(&b, "- **`%s`** — %s\n", n.Field, n.Note)
	}

	b.WriteString("\n## pondfleet flags\n\n")
	b.WriteString("The per-group flag registrations in `internal/cliutil` seed their\n")
	b.WriteString("defaults from `Defaults()`, so this table cannot drift from the API:\n\n")
	b.WriteString("| Flag | Default | Meaning |\n|---|---|---|\n")
	fs := flag.NewFlagSet("pondfleet", flag.ContinueOnError)
	opts := pond.Defaults()
	cliutil.RegisterClusterFlags(fs, &opts.Cluster)
	cliutil.RegisterModelFlags(fs, &opts.Model)
	cliutil.RegisterCapacityFlags(fs, &opts.Capacity)
	cliutil.RegisterEngineFlags(fs, &opts.Engine)
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if def == "" {
			def = "(empty)"
		}
		fmt.Fprintf(&b, "| `-%s` | `%s` | %s |\n", f.Name, def, f.Usage)
	})
	return b.String()
}

// TestDefaultsDocCurrent is the currency gate for docs/DEFAULTS.md: the
// committed file must match what the code generates. Run with
// -update-defaults-doc to regenerate after an intentional change.
func TestDefaultsDocCurrent(t *testing.T) {
	path := filepath.Join("docs", "DEFAULTS.md")
	want := renderDefaultsDoc()
	if *updateDefaultsDoc {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-defaults-doc)", err)
	}
	if string(got) != want {
		t.Fatalf("docs/DEFAULTS.md is stale — regenerate with:\n"+
			"  go test . -run TestDefaultsDocCurrent -update-defaults-doc\n"+
			"committed:\n%s\ngenerated:\n%s", got, want)
	}
}
