// Command surfacecheck fails when the program carries surface that nothing
// uses or that breaks the layering. Run it from the repository root:
//
//	go run ./internal/surfacecheck
//
// It type-checks every non-test file of the module and of bench/ (via the
// package lists `go list -deps -json` prints) once for GOOS=linux and once
// for GOOS=windows, and applies three rules:
//
//   - Every exported package-level func, type, var and const under
//     internal/, and every exported method of a type declared there, has a
//     use in some non-test file outside its own declaration. A method also
//     counts as used when its receiver implements an interface whose method
//     of that name is used, or one of the standard-library interfaces the
//     program hands values to (stdlibInterfaces).
//   - The codec packages import only the standard library and each other.
//   - Every backticked pkg.Name or pkg.Type.Method in DESIGN.md and
//     README.md names a declaration, in a non-test or a test file.
//
// Exceptions live in allowUnused and allowImport, each with its reason; an
// exception that no longer matches a finding is itself a failure. The exit
// status is 1 on any finding and 2 when the tree cannot be loaded.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowUnused names the exported surface kept without a non-test use.
var allowUnused = map[string]string{
	"der.ClassApplication":            "wire enumeration: the tag class a decoder reports for input bytes",
	"der.ClassPrivate":                "wire enumeration: the tag class a decoder reports for input bytes",
	"x509x.KeyUsageContentCommitment": "wire enumeration: a bit of a 1<<iota block; deleting it renumbers the rest and changes certificate bytes",
	"x509x.KeyUsageDataEncipherment":  "wire enumeration: a bit of a 1<<iota block; deleting it renumbers the rest and changes certificate bytes",
	"x509x.KeyUsageKeyAgreement":      "wire enumeration: a bit of a 1<<iota block; deleting it renumbers the rest and changes certificate bytes",
	"simnet.Network.SetFailure":       "test seam: tests in other packages take an endpoint down",
	"simnet.Network.ResetStats":       "test seam: tests in other packages zero the counters between phases",
	"faultnet.Injector.ClearFault":    "test seam: tests in other packages lift a fault mid-run",
	"chain.DiscoverIntermediates":     "deferred: ROADMAP item 17d decides whether path building fetches AIA intermediates",
	"scenario.Engine.ExposeTCP":       "deferred: ROADMAP item 8 serves the world on live TCP endpoints",
	"scenario.TCP.Addr":               "deferred: ROADMAP item 8 serves the world on live TCP endpoints",
}

// codecs are the wire-format packages; they may import only the standard
// library and each other, so that a decoder never depends on the simulation.
var codecs = []string{"der", "x509x", "crl", "ocsp", "serialx"}

// allowImport names the codec import edges kept against that rule.
var allowImport = map[string]string{
	"x509x -> ribbon": "the certificate memoises its filter digest (ribbon.Sum) for the offline warm path, which TestWarmVerdictAllocatesNothing holds at zero allocations",
}

// stdlibInterfaces are the standard-library interfaces through which the
// standard library calls methods the program declares.
var stdlibInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"net/http", "Handler"},
	{"net/http", "RoundTripper"},
	{"net/http", "ResponseWriter"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"io", "WriterTo"},
	{"net", "Error"},
	{"math/rand", "Source"},
	{"math/rand", "Source64"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
}

var docs = []string{"DESIGN.md", "README.md"}

// listedPackage is the part of `go list -json` output the pass reads.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
}

// checkedPackage is one repository package type-checked from its non-test
// files.
type checkedPackage struct {
	listedPackage
	types *types.Package
	files []*ast.File
	info  *types.Info
}

type finding struct{ pos, msg string }

func main() {
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	var (
		decls    = map[string]string{} // position of every candidate, by name
		used     = map[string]bool{}
		imports  = map[string]string{} // importing directory of each "codec -> pkg" edge breaking the rule
		resolved *pass
	)
	for _, goos := range []string{"linux", "windows"} {
		p, err := load(root, goos)
		if err != nil {
			fatal(err)
		}
		p.collect(decls, used)
		for _, pkg := range p.pkgs {
			if !isCodec(pkg.ImportPath) {
				continue
			}
			for _, imp := range pkg.Imports {
				if p.std[imp] || isCodec(imp) {
					continue
				}
				imports[pkg.Name+" -> "+strings.TrimPrefix(imp, "repro/internal/")] = p.rel(pkg.Dir)
			}
		}
		if resolved == nil {
			resolved = p
		}
	}

	var findings []finding
	var dead int
	names := make([]string, 0, len(decls))
	for name := range decls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if used[name] {
			if _, ok := allowUnused[name]; ok {
				findings = append(findings, finding{decls[name], name + " is allowlisted but has a non-test use; drop its allowUnused entry"})
			}
			continue
		}
		dead++
		if _, ok := allowUnused[name]; !ok {
			findings = append(findings, finding{decls[name], name + " is exported and no non-test file uses it"})
		}
	}
	for name := range allowUnused {
		if _, ok := decls[name]; !ok {
			findings = append(findings, finding{"internal/surfacecheck", "allowUnused names " + name + ", which is not an exported declaration under internal/"})
		}
	}
	for edge, dir := range imports {
		if _, ok := allowImport[edge]; !ok {
			findings = append(findings, finding{dir, "codec import " + edge + ": codec packages import only the standard library and each other"})
		}
	}
	for edge := range allowImport {
		if _, ok := imports[edge]; !ok {
			findings = append(findings, finding{"internal/surfacecheck", "allowImport names " + edge + ", which no codec package imports"})
		}
	}
	docFindings, err := resolved.checkDocs()
	if err != nil {
		fatal(err)
	}
	findings = append(findings, docFindings...)

	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	fmt.Printf("surfacecheck: %d exported names under internal/ with no non-test use (%d allowlisted), %d codec import edges (%d allowlisted), %d findings\n",
		dead, len(allowUnused), len(imports), len(allowImport), len(findings))
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "surfacecheck:", err)
	os.Exit(2)
}

func isCodec(path string) bool {
	for _, c := range codecs {
		if path == "repro/internal/"+c {
			return true
		}
	}
	return false
}

// pass is the module and bench/ type-checked for one GOOS.
type pass struct {
	root string
	fset *token.FileSet
	pkgs []*checkedPackage
	std  map[string]bool
	imp  types.ImporterFrom
}

func (p *pass) rel(path string) string {
	if r, err := filepath.Rel(p.root, path); err == nil {
		return r
	}
	return path
}

func (p *pass) position(pos token.Pos) string {
	position := p.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.rel(position.Filename), position.Line)
}

// load lists the module's and bench/'s packages for goos and type-checks the
// non-standard ones in dependency order; the standard library is
// type-checked from source by go/importer.
func load(root, goos string) (*pass, error) {
	var listed []listedPackage
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		pattern := "./..."
		if dir != root {
			pattern = "."
		}
		cmd := exec.Command("go", "list", "-deps", "-json", pattern)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOOS="+goos, "CGO_ENABLED=0")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var lp listedPackage
			if err := dec.Decode(&lp); err != nil {
				return nil, fmt.Errorf("go list in %s: %v", dir, err)
			}
			listed = append(listed, lp)
		}
	}

	build.Default.GOOS = goos
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	p := &pass{
		root: root,
		fset: fset,
		std:  map[string]bool{},
		imp:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	byPath := map[string]*types.Package{}
	for _, lp := range listed {
		if lp.Standard {
			p.std[lp.ImportPath] = true
			continue
		}
		if _, done := byPath[lp.ImportPath]; done {
			continue
		}
		cp := &checkedPackage{listedPackage: lp, info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		conf := types.Config{Importer: repoImporter{p.imp, byPath}}
		pkg, err := conf.Check(lp.ImportPath, fset, cp.files, cp.info)
		if err != nil {
			return nil, fmt.Errorf("GOOS=%s: %v", goos, err)
		}
		cp.types = pkg
		byPath[lp.ImportPath] = pkg
		p.pkgs = append(p.pkgs, cp)
	}
	return p, nil
}

// repoImporter resolves the repository's packages from those already
// checked and everything else from the standard library's source.
type repoImporter struct {
	std  types.ImporterFrom
	repo map[string]*types.Package
}

func (r repoImporter) Import(path string) (*types.Package, error) {
	return r.ImportFrom(path, "", 0)
}

func (r repoImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := r.repo[path]; ok {
		return pkg, nil
	}
	return r.std.ImportFrom(path, dir, mode)
}

// collect adds this pass's candidates to decls and its uses to used.
func (p *pass) collect(decls map[string]string, used map[string]bool) {
	names := map[types.Object]string{}
	var methods []*types.Func
	var ifaces []*types.Named
	for _, cp := range p.pkgs {
		if !strings.HasPrefix(cp.ImportPath, "repro/internal/") || cp.Name == "main" {
			continue
		}
		scope := cp.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				names[obj] = cp.Name + "." + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					names[m] = cp.Name + "." + n + "." + m.Name()
					methods = append(methods, m)
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, named)
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						names[m] = cp.Name + "." + n + "." + m.Name()
					}
				}
			}
		}
	}
	for obj, name := range names {
		if _, ok := decls[name]; !ok {
			decls[name] = p.position(obj.Pos())
		}
	}

	// Direct uses, outside the declaration that owns the name: a recursive
	// call keeps nothing alive, nor does a type's mention in its own methods.
	live := map[types.Object]bool{}
	for _, cp := range p.pkgs {
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				owners := owners(cp, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := origin(cp.info.Uses[id])
					if obj == nil || owners[obj] {
						return true
					}
					if name, ok := names[obj]; ok {
						used[name] = true
						live[obj] = true
					}
					return true
				})
			}
		}
	}

	// Calls through an interface: a method is live when its receiver
	// implements an interface whose method of that name is live.
	for _, s := range stdlibInterfaces {
		pkg, err := p.imp.Import(s.pkg)
		if err != nil {
			fatal(err)
		}
		named := pkg.Scope().Lookup(s.name).Type().(*types.Named)
		ifaces = append(ifaces, named)
		iface := named.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			live[iface.Method(i)] = true
		}
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))}, nil).Complete()
	extra := []*types.Interface{errType.Underlying().(*types.Interface), unwrap}
	for _, iface := range extra {
		for i := 0; i < iface.NumMethods(); i++ {
			live[iface.Method(i)] = true
		}
	}
	all := extra
	for _, named := range ifaces {
		all = append(all, named.Underlying().(*types.Interface))
	}
	for _, m := range methods {
		if live[m] {
			continue
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if types.IsInterface(recv) {
			continue
		}
		for _, iface := range all {
			obj, _, _ := types.LookupFieldOrMethod(iface, false, m.Pkg(), m.Name())
			if obj == nil || !live[obj] {
				continue
			}
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				used[names[m]] = true
				break
			}
		}
	}
}

// owners are the objects decl declares, whose uses inside decl do not
// count: a func or method, its receiver's type, a type, or a var or const.
func owners(cp *checkedPackage, decl ast.Decl) map[types.Object]bool {
	owners := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		owners[cp.info.Defs[d.Name]] = true
		if d.Recv != nil && len(d.Recv.List) == 1 {
			if id := recvIdent(d.Recv.List[0].Type); id != nil {
				owners[cp.info.Uses[id]] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				owners[cp.info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					owners[cp.info.Defs[n]] = true
				}
			}
		}
	}
	return owners
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// docRef matches pkg.Name and pkg.Name.Name inside a backticked span; the
// leading group keeps paths and selectors on locals (a/b.c, x.y.z) out.
// docMember matches a span that is one Type.Member with an optional call
// suffix; the type needs a lower-case letter, so acronyms stay prose. A
// bare Name is left alone: prose names HTTP headers and standard-library
// identifiers the same way.
var (
	docSpan   = regexp.MustCompile("`[^`\n]+`")
	docRef    = regexp.MustCompile(`(^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?\b`)
	docMember = regexp.MustCompile(`^\*?([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)\.([A-Z][A-Za-z0-9]*)(?:\(.*\))?$`)
)

// checkDocs resolves every backticked reference in docs: pkg.Name and
// pkg.Type.Member against the named package under internal/, and a bare
// Type.Member against every declaration in the repository.
func (p *pass) checkDocs() ([]finding, error) {
	pkgs := map[string]*checkedPackage{}
	for _, cp := range p.pkgs {
		if strings.HasPrefix(cp.ImportPath, "repro/internal/") && cp.Name != "main" {
			pkgs[cp.Name] = cp
		}
	}
	testDecls, known, err := p.testDecls(pkgs)
	if err != nil {
		return nil, err
	}
	for _, cp := range p.pkgs {
		addKnown(known, cp.types)
	}
	var findings []finding
	for _, doc := range docs {
		src, err := os.ReadFile(filepath.Join(p.root, doc))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, span := range docSpan.FindAllString(line, -1) {
				span = strings.Trim(span, "`")
				if m := docMember.FindStringSubmatch(span); m != nil {
					if ref := m[1] + "." + m[2]; !known[ref] {
						findings = append(findings, finding{fmt.Sprintf("%s:%d", doc, i+1), "`" + ref + "` names no declaration"})
					}
					continue
				}
				for _, m := range docRef.FindAllStringSubmatch(span, -1) {
					cp, ok := pkgs[m[2]]
					if !ok || m[3] == "go" {
						continue
					}
					ref := m[2] + "." + m[3]
					if m[4] != "" {
						ref += "." + m[4]
					}
					if !resolves(cp, m[3], m[4]) && !testDecls[ref] {
						findings = append(findings, finding{fmt.Sprintf("%s:%d", doc, i+1), "`" + ref + "` names no declaration"})
					}
				}
			}
		}
	}
	return findings, nil
}

// addKnown adds Type.Member for every method and field of pkg's named
// types.
func addKnown(known map[string]bool, pkg *types.Package) {
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				known[n+"."+named.Method(i).Name()] = true
			}
		}
		switch u := tn.Type().Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				known[n+"."+u.Field(i).Name()] = true
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				known[n+"."+u.Method(i).Name()] = true
			}
		}
	}
}

// resolves reports whether pkg declares name, and name's type has member
// when one is given.
func resolves(cp *checkedPackage, name, member string) bool {
	obj := cp.types.Scope().Lookup(name)
	if obj == nil {
		return false
	}
	if member == "" {
		return true
	}
	if _, ok := obj.(*types.Func); ok {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, cp.types, member)
	return m != nil
}

// testDecls are the top-level names (pkg.Name, pkg.Recv.Method) that the
// packages' test files declare, which a document may name too; known holds
// the same names without their package, for the bare Type.Member form.
func (p *pass) testDecls(pkgs map[string]*checkedPackage) (decls, known map[string]bool, err error) {
	decls, known = map[string]bool{}, map[string]bool{}
	add := func(pkg, name string) {
		decls[pkg+"."+name] = true
		known[name] = true
	}
	fset := token.NewFileSet()
	for name, cp := range pkgs {
		for _, file := range append(append([]string{}, cp.TestGoFiles...), cp.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(cp.Dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(name, d.Name.Name)
					} else if id := recvIdent(d.Recv.List[0].Type); id != nil {
						add(name, id.Name+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(name, s.Name.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return decls, known, nil
}

// recvIdent is the type name in a method's receiver expression.
func recvIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}
