//go:build !race

package observatory

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// module is the import path of every tree the lint reads. Each package is
// checked with its tests once, from source: slow under -race, hence the tag.
const module = "github.com/afrinet/observatory"

// A rule forbids, in the files it covers, each use whose key it matches.
// Keys name objects, not spellings: an object's is its package path less
// the module's, a method's receiver type and its name ("time.Now",
// "os.File.Truncate"). A use in a call's first argument also has the key
// callee + "(" + its own, one in a go statement of a variable declared
// outside it "go " + its type, a constant string its quoted value and an
// integer its decimal one.
type rule struct {
	name   string
	files  []string // the files it covers, by name or directory; none means all
	tests  bool     // whether it covers _test.go files
	exempt []string // the files and keys it allows
	re     *regexp.Regexp
	msg    string
}

var rules = []rule{
	{"determinism-clock", []string{"internal/core/", "internal/framelog/", "internal/journal/", "internal/store/", "internal/spool/", "internal/federation/", "internal/websim/", "internal/archival/", "internal/dnssim/", "internal/dnsload/", "internal/fleet/", "cmd/fleetsim/"}, true, nil, regexp.MustCompile(`^time\.(Now|Since|Until)$`), "the replay-deterministic packages read no wall clock: logical time comes in through Tick and journaled ops, load timing through internal/obs"},
	{"determinism-rand", []string{"internal/websim/", "internal/archival/", "internal/dnssim/", "internal/dnsload/"}, true, nil, regexp.MustCompile(`^math/rand(/v2)?\.`), "the websteps and DNS stacks draw from seeded splitmix64 streams, never math/rand"},
	{"envelope", []string{"internal/core/", "internal/federation/"}, true, []string{"internal/core/envelope.go"}, regexp.MustCompile(`^net/http\.Error$|\.WriteHeader$`), "both HTTP tiers write responses only through internal/core/envelope.go, so every error body is the uniform envelope"},
	{"durable-file", []string{"internal/journal/", "internal/spool/", "internal/store/"}, false, nil, regexp.MustCompile(`^os\.(Rename|OpenFile|Truncate|File\.Truncate)$`), "journal, spool and store create, truncate and rename files only through internal/framelog"},
	{"probe-protocol-records", []string{"internal/core/"}, true, nil, regexp.MustCompile(`^internal/core\.Controller\.mutateLocked\(internal/core\.op(Heartbeat|Lease|Results|Submit)$`), "heartbeat, lease_grant, results_accept and experiment_submit records are only read back: journal probe traffic as opSync and submissions as opSubmitCols"},
	{"probe-protocol-calls", nil, true, nil, regexp.MustCompile(`^internal/core\.Controller\.(Heartbeat|LeaseTasks|SubmitResults)$`), "Controller.Heartbeat, LeaseTasks and SubmitResults are deleted: a probe call is one SyncProbe round"},
	{"probe-protocol-routes", []string{"internal/core/"}, false, nil, regexp.MustCompile(`^".*/probes/\{id\}/`), "no /probes/{id}/ route: a probe call is one probe_sync round"},
	{"probe-protocol-handlers", []string{"internal/federation/"}, true, []string{"internal/federation.Coordinator.handleShards"}, regexp.MustCompile(`^internal/federation\.Coordinator\.handle`), "the coordinator serves only the shards route itself: write a route once in internal/core against core.Backend"},
	{"probe-protocol-shard", []string{"internal/federation/"}, false, nil, regexp.MustCompile(`\.SubmitWithID$`), "push a partition to a shard with core.Backend.Submit"},
	{"metrics-registry-counters", nil, true, nil, regexp.MustCompile(`\.(AddCounters|CounterSet)$`), "AddCounters and CounterSet are gone: count into reg.Counters(family) or reg.Gauges(family)"},
	{"metrics-registry-import", nil, false, []string{"internal/experiments/", "internal/metrics/"}, regexp.MustCompile(`^internal/metrics\.`), "internal/metrics is the statistics toolkit of internal/experiments only: metrics live in internal/obs"},
	{"seeded-hash", []string{"internal/"}, true, []string{"internal/splitmix/"}, regexp.MustCompile(`^10723151780598845931$`), "0x94d049bb133111eb is SplitMix64's: every seeded draw goes through internal/splitmix, with its package's own seed and salts"},
	{"span-capture", nil, true, nil, regexp.MustCompile(`^go \*internal/obs\.Span$`), "an obs.Span is written by one goroutine: give the goroutine a span tree of its own"},
	{"book-pure", []string{"internal/core/book.go", "internal/federation/fedbook.go"}, false, nil, regexp.MustCompile(`^(internal/(obs|journal|store|framelog)|os|sync|time|net/http)\.`), "a book (the controller's book, the coordinator's fedBook) is the journaled state machine alone, with no lock, I/O, clock or metrics: its owner does those and hands the book its counters and wake-ups"},
	{"journal-machine", []string{"internal/"}, false, []string{"internal/journal/"}, regexp.MustCompile(`^internal/journal\.(Open|DecodeOps|Log\.Append|Log\.WriteSnapshot)$`), "only internal/journal replays or appends a journal: an owner rebuilds its state and journals its mutations through journal.Machine"},
	{"aggregate-encode", nil, false, []string{"internal/core/envelope.go", "internal/store/aggjson.go"}, regexp.MustCompile(`^internal/store\.(AggReport\.AppendJSON|Folder\.AppendReport)$`), "no encode of an aggregate report outside core.WriteAggReport: a response's groups are encoded once, where untouched sealed groups are spliced, and op=aggregate bodies cannot drift"},
	{"local-failover", []string{"cmd/", "internal/"}, false, []string{"internal/federation/"}, regexp.MustCompile(`^internal/federation\.ShipState$`), "only internal/federation ships a shard's state: boot in-process shards with federation.BootLocal, whose Failover hook ships to and recovers at federation.ShardDir"},
}

// interfaceMethods are method names the standard library calls through
// its own interfaces; nothing in the module calls them, yet they run.
var interfaceMethods = regexp.MustCompile(`^(Error|String|Unwrap|MarshalJSON|UnmarshalJSON|ServeHTTP|RoundTrip|Len|Less|Swap|Push|Pop)$`)

var (
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil)
	info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	repo = sync.OnceValues(func() (map[string][]string, error) { return lint(".") })
)

// A tree is a module's packages by import path, external test packages
// included. A package is checked with its in-package test files, which go
// test forbids to import anything that imports the package.
type tree struct {
	files map[string][]*ast.File
	types map[string]*types.Package
}

func load(root string) (tree, error) {
	t := tree{map[string][]*ast.File{}, map[string]*types.Package{}}
	return t, filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return cmp.Or(err, filepath.SkipDir)
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		ip := strings.TrimSuffix(module+"/"+path.Dir(filepath.ToSlash(rel)), "/.")
		if strings.HasSuffix(f.Name.Name, "_test") {
			ip += "_test"
		}
		t.files[ip] = append(t.files[ip], f)
		return nil
	})
}

// Import answers a check's imports: the module's packages from the tree
// alone, the standard library from source.
func (t tree) Import(p string) (_ *types.Package, err error) {
	if t.files[p] == nil && !strings.HasPrefix(p, module) {
		return std.Import(p)
	} else if t.types[p] == nil {
		t.types[p], err = (&types.Config{Importer: t}).Check(p, fset, t.files[p], info)
	}
	return t.types[p], err
}

func key(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
		return strings.TrimPrefix(types.TypeString(f.Signature().Recv().Type(), rel), "*") + "." + f.Name()
	}
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return rel(obj.Pkg()) + "." + obj.Name()
}

func rel(p *types.Package) string { return strings.TrimPrefix(p.Path(), module+"/") }

// in reports whether s is one of list, or under an entry ending in "/".
func in(list []string, s string) bool {
	return slices.ContainsFunc(list, func(e string) bool { return s == e || strings.HasSuffix(e, "/") && strings.HasPrefix(s, e) })
}

// lint reads the module tree at root and returns, as sorted "file:line:
// key" lines, each rule's findings and, under "trip", the keys "// trip:"
// comments list. A method is used where an interface it implements is.
func lint(root string) (map[string][]string, error) {
	// used holds the top-level declarations in internal/: 1 once their own
	// package's tests use one, 2 once anything else does.
	used := map[types.Object]int{}
	t, err := load(root)
	var files []*ast.File
	for p := range t.files {
		pkg, perr := t.Import(p)
		files, err = append(files, t.files[p]...), errors.Join(err, perr)
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); strings.HasPrefix(p, module+"/internal/") {
				used[obj] = 0
				if n, ok := obj.Type().(*types.Named); ok && n.Obj() == obj {
					for i := range n.NumMethods() {
						used[n.Method(i)] = 0
					}
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	found := map[string][]string{}
	add := func(rule string, pos token.Pos, k string) {
		found[rule] = append(found[rule], fmt.Sprintf("%s:%d: %s", fset.Position(pos).Filename, fset.Position(pos).Line, k))
	}
	ifaces := map[string][]*types.Interface{} // the interfaces used, by method name
	recv := map[token.Pos]bool{}              // where a method names its receiver's type, which does not use it
	// use takes one use, at pos in the file at, of the key k naming obj.
	use := func(at string, pos token.Pos, k string, obj types.Object) {
		test := strings.HasSuffix(at, "_test.go")
		for _, r := range rules {
			if r.re.MatchString(k) && (r.tests || !test) && (r.files == nil || in(r.files, at)) && !in(r.exempt, at) && !in(r.exempt, k) {
				add(r.name, pos, k)
			}
		}
		if obj == nil {
			return
		}
		self := recv[pos]
		if m, ok := obj.(*types.Func); ok {
			obj, self = m.Origin(), m.Origin().Scope() != nil && m.Origin().Scope().Contains(pos)
		}
		if i, ok := obj.Type().Underlying().(*types.Interface); ok {
			for n := range i.NumMethods() {
				ifaces[i.Method(n).Name()] = append(ifaces[i.Method(n).Name()], i)
			}
		}
		if _, ok := used[obj]; ok && !self && test && path.Dir(at) == rel(obj.Pkg()) {
			used[obj] |= 1
		} else if ok && !self {
			used[obj] |= 2
		}
	}
	for _, f := range files {
		at, _ := filepath.Rel(root, fset.Position(f.Pos()).Filename)
		at = filepath.ToSlash(at)
		for _, c := range f.Comments {
			if k, ok := strings.CutPrefix(c.Text(), "trip: "); ok {
				add("trip", c.Pos(), strings.TrimSpace(k))
			}
		}
		each := func(n ast.Node, fn func(*ast.Ident, types.Object)) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					fn(id, info.Uses[id])
				}
				return true
			})
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				each(fd.Recv, func(id *ast.Ident, _ types.Object) { recv[id.Pos()] = true })
			}
		}
		each(f, func(id *ast.Ident, obj types.Object) { use(at, id.Pos(), key(obj), obj) })
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := "" // the key of Fun's last name
				each(n.Fun, func(_ *ast.Ident, obj types.Object) { callee = key(obj) })
				if len(n.Args) > 0 && callee != "" {
					each(n.Args[0], func(id *ast.Ident, obj types.Object) {
						if key(obj) != "" {
							use(at, id.Pos(), callee+"("+key(obj), nil)
						}
					})
				}
			case *ast.GoStmt:
				each(n.Call, func(id *ast.Ident, obj types.Object) {
					if v, ok := obj.(*types.Var); ok && (v.Pos() < n.Pos() || v.Pos() >= n.End()) {
						use(at, id.Pos(), "go "+types.TypeString(v.Type(), rel), nil)
					}
				})
			}
			if e, ok := n.(ast.Expr); ok && info.Types[e].Value != nil && slices.Contains([]constant.Kind{constant.String, constant.Int}, info.Types[e].Value.Kind()) {
				use(at, e.Pos(), info.Types[e].Value.ExactString(), nil)
			}
			return true
		})
	}
	for obj, u := range used {
		m, method := obj.(*types.Func)
		if method = method && m.Signature().Recv() != nil; method && interfaceMethods.MatchString(m.Name()) || strings.HasSuffix(fset.Position(obj.Pos()).Filename, "_test.go") {
			continue
		}
		for _, i := range ifaces[obj.Name()] {
			if method && (types.Implements(m.Signature().Recv().Type(), i) || types.Implements(types.NewPointer(m.Signature().Recv().Type()), i)) {
				u |= 2
			}
		}
		if u < 2 {
			add([]string{"unused", "own-tests"}[u], obj.Pos(), key(obj))
		}
	}
	for _, fs := range found {
		slices.Sort(fs)
	}
	return found, nil
}

// TestLint runs each rule on its testdata trees, then on the module.
func TestLint(t *testing.T) {
	for _, r := range append(rules, rule{name: "own-tests", msg: "only its own package's tests use it: delete it, or give it a caller"}) {
		t.Run(r.name, func(t *testing.T) { check(t, r) })
	}
}

// TestEveryDeclarationIsNamed fails on a top-level declaration in a
// non-test file under internal/ that nothing in the module, tests
// included, uses: code that nothing can run.
func TestEveryDeclarationIsNamed(t *testing.T) {
	check(t, rule{name: "unused", msg: "nothing in the module uses it: delete it"})
}

// check runs r on testdata/lint/<name>/trip, where it must find exactly
// the keys "// trip: key" comments give, and on .../clean, where it must
// find nothing. On the module it fails on each finding whose key is not in
// testdata/lint/<name>.txt, a list that may only shrink, and on each
// listed key r no longer finds.
func check(t *testing.T, r rule) {
	for _, tree := range []string{"trip", "clean"} {
		root := filepath.Join("testdata", "lint", r.name, tree)
		if found, err := lint(root); err != nil || !slices.Equal(found[r.name], found["trip"]) || tree == "trip" && len(found["trip"]) == 0 {
			t.Errorf("%s: found %q (%v), want the keys on the lines marked // trip: %q", root, found[r.name], err, found["trip"])
		}
	}
	found, err := repo()
	list, _ := os.ReadFile(filepath.Join("testdata", "lint", r.name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	listed := strings.Fields(string(list))
	for _, f := range found[r.name] {
		if k := f[strings.Index(f, ": ")+2:]; slices.Contains(listed, k) {
			listed = slices.DeleteFunc(listed, func(l string) bool { return l == k })
		} else {
			t.Errorf("%s: %s", f, r.msg)
		}
	}
	for _, k := range listed {
		t.Errorf("testdata/lint/%s.txt lists %s, which the rule no longer finds: drop the line", r.name, k)
	}
}
