package deadcode

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// arches are the GOARCH values the scan unions over: amd64 compiles the
// assembly-backed files, any other arch their pure-Go twins.
var arches = []string{"amd64", "arm64"}

// A finding is one unreached declaration site. lines counts its doc
// comment too.
type finding struct {
	file  string // slash-separated, relative to the analyzed root
	line  int
	name  string
	lines int
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d %s (%d lines)", f.file, f.line, f.name, f.lines)
}

// A module is one go.mod tree. Declarations of a client module are not
// judged: everything it references is a root.
type module struct {
	dir, path string
	client    bool
}

// unreached returns every non-test declaration of the module rooted at
// dir that nothing reaches, sorted by position. clients are the
// directories of further modules that import it (each loads it through
// a replace directive); their code, tests included, only adds roots.
//
// Roots are main and every init, the initializers of blank package
// vars, the allowlist, and every reference from a client module or
// from another package's _test.go files. Reachability is transitive
// over declarations: a reached declaration reaches what its body, type
// or initializer names. A method is also reached when its receiver type
// is reached and either a reached interface method has its name and
// signature, or the receiver satisfies a standard-library interface
// (fmt.Stringer, error, encoding.BinaryMarshaler, ...) through it. The
// result is the union over arches: a declaration reached on one of them
// is reached.
//
// An allow pattern keeps the declarations whose key it matches without a
// reaching reference. A key is the package's import path, a dot and the
// declaration's name, with the receiver (or interface) type between them
// for methods: "repro/internal/simnet.RunWireLoopback",
// "repro.Report.SaveModel". A pattern matches the import path literally
// and each dot-separated name segment with path.Match.
func unreached(dir string, clients []string, allow []string) ([]finding, error) {
	mods := []module{{dir: dir}}
	for _, c := range clients {
		mods = append(mods, module{dir: c, client: true})
	}
	for i := range mods {
		p, err := modulePath(mods[i].dir)
		if err != nil {
			return nil, err
		}
		mods[i].path = p
	}

	// The source importer reads build.Default. Standard packages are
	// type-checked once, for the host arch, and shared by every pass:
	// only the module's own file selection depends on GOARCH. cgo off
	// keeps net and os/user pure Go.
	saved := build.Default
	defer func() { build.Default = saved }()
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	a := &analysis{
		root:     dir,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		allow:    allow,
		allowHit: make([]bool, len(allow)),
		files:    map[string]*ast.File{},
		keyAt:    map[token.Pos]string{},
		sites:    map[string][]finding{},
		reached:  map[string]bool{},
	}
	for _, arch := range arches {
		if err := a.run(mods, arch); err != nil {
			return nil, fmt.Errorf("GOARCH=%s: %w", arch, err)
		}
	}
	for i, hit := range a.allowHit {
		if !hit {
			return nil, fmt.Errorf("allowlist entry %q matches no declaration", allow[i])
		}
	}

	var out []finding
	for key, sites := range a.sites {
		if !a.reached[key] {
			out = append(out, sites...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// analysis holds what the passes share: parsed files (so a position
// means the same declaration in every pass), the key of every declared
// name's position, and the union of declaration sites and reached keys.
type analysis struct {
	root     string
	fset     *token.FileSet
	std      types.Importer
	allow    []string
	allowHit []bool
	files    map[string]*ast.File
	keyAt    map[token.Pos]string
	sites    map[string][]finding
	reached  map[string]bool
}

// pkg is one directory's package in one pass.
type pkg struct {
	path       string
	client     bool
	bp         *build.Package
	files      []*ast.File // GoFiles
	tests      []*ast.File // TestGoFiles
	xtests     []*ast.File // XTestGoFiles
	base       *types.Package
	info       *types.Info
	test       *types.Package  // base plus the in-package tests
	dependents map[string]bool // module packages that import this one, directly or not
}

// node is one judged declaration in one pass.
type node struct {
	pkg     string
	refs    []string
	recv    string      // methods: key of the receiver type
	fn      *types.Func // methods and interface methods
	iface   bool        // a method of a declared interface
	generic bool        // the receiver or interface has type parameters
	std     bool        // the receiver satisfies a std interface through it
}

// pass is the state of one arch's run.
type pass struct {
	*analysis
	ctxt  build.Context
	pkgs  map[string]*pkg
	nodes map[string]*node
	roots []string
	// later holds the reference scans of declarations, run once every
	// declaration of the pass has its key.
	later []func()
}

// run adds one arch's declarations and reached keys to a.
func (a *analysis) run(mods []module, arch string) error {
	p := &pass{analysis: a, ctxt: build.Default, pkgs: map[string]*pkg{}, nodes: map[string]*node{}}
	p.ctxt.GOARCH = arch
	for _, m := range mods {
		if err := p.load(m); err != nil {
			return err
		}
	}
	paths := make([]string, 0, len(p.pkgs))
	for path := range p.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := p.checkBase(path); err != nil {
			return err
		}
	}
	for _, path := range paths {
		if q := p.pkgs[path]; !q.client {
			p.declare(q)
		}
	}
	for _, scan := range p.later {
		scan()
	}
	for _, path := range paths {
		if err := p.testRefs(p.pkgs[path]); err != nil {
			return err
		}
	}
	p.markStd()
	reached := p.reach()
	for key, n := range p.nodes {
		if n.pkg == "" {
			continue // a root with no name
		}
		if reached[key] {
			a.reached[key] = true
		}
	}
	return nil
}

// load parses every package directory of m for p's arch.
func (p *pass) load(m module) error {
	return filepath.WalkDir(m.dir, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != m.dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
			}
		}
		bp, err := p.ctxt.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		q := &pkg{path: path.Join(m.path, filepath.ToSlash(rel)), client: m.client, bp: bp}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &q.files}, {bp.TestGoFiles, &q.tests}, {bp.XTestGoFiles, &q.xtests}} {
			for _, name := range set.names {
				f, err := p.parse(filepath.Join(dir, name))
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		p.pkgs[q.path] = q
		return nil
	})
}

func (p *pass) parse(file string) (*ast.File, error) {
	if f, ok := p.files[file]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(p.fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	p.files[file] = f
	return f, nil
}

// check type-checks files as the package path, resolving module imports
// through imp and everything else through the source importer.
func (p *pass) check(path string, files []*ast.File, imp func(string) (*types.Package, error)) (*types.Package, *types.Info, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if _, ok := p.pkgs[path]; ok {
				return imp(path)
			}
			return p.std.Import(path)
		}),
		Sizes: types.SizesFor("gc", p.ctxt.GOARCH),
	}
	tp, err := conf.Check(path, p.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return tp, info, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkBase type-checks the non-test files of the package path once.
func (p *pass) checkBase(path string) (*types.Package, error) {
	q := p.pkgs[path]
	if q.base == nil {
		tp, info, err := p.check(path, q.files, p.checkBase)
		if err != nil {
			return nil, err
		}
		q.base, q.info = tp, info
	}
	return q.base, nil
}

// declare records a node for every package-level declaration of q, and
// the roots among them.
func (p *pass) declare(q *pkg) {
	for _, f := range q.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				p.declareFunc(q, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					start, end := d.Pos(), d.End()
					if d.Doc != nil {
						start = d.Doc.Pos()
					}
					if d.Lparen.IsValid() {
						start, end = spec.Pos(), spec.End()
						if doc := specDoc(spec); doc != nil {
							start = doc.Pos()
						}
					}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						p.declareType(q, spec, start, end)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							n := p.add(q, id, id.Name, start, end)
							p.refs(q.info, spec.Type, n)
							for _, v := range spec.Values {
								p.refs(q.info, v, n)
							}
						}
					}
				}
			}
		}
	}
}

func specDoc(spec ast.Spec) *ast.CommentGroup {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return s.Doc
	case *ast.ValueSpec:
		return s.Doc
	}
	return nil
}

func (p *pass) declareFunc(q *pkg, d *ast.FuncDecl) {
	start := d.Pos()
	if d.Doc != nil {
		start = d.Doc.Pos()
	}
	name := d.Name.Name
	var recv string
	generic := false
	if d.Recv != nil {
		recv, generic = recvName(d.Recv.List[0].Type)
		name = recv + "." + name
	}
	n := p.add(q, d.Name, name, start, d.End())
	p.refs(q.info, d, n)
	if d.Recv != nil {
		n.recv = q.path + "." + recv
		n.fn, _ = q.info.Defs[d.Name].(*types.Func)
		n.generic = generic
	} else if name == "main" && q.bp.Name == "main" {
		p.roots = append(p.roots, q.path+".main")
	}
}

func (p *pass) declareType(q *pkg, spec *ast.TypeSpec, start, end token.Pos) {
	n := p.add(q, spec.Name, spec.Name.Name, start, end)
	p.refs(q.info, spec.TypeParams, n)
	it, ok := spec.Type.(*ast.InterfaceType)
	if !ok {
		p.refs(q.info, spec.Type, n)
		return
	}
	for _, field := range it.Methods.List {
		if len(field.Names) == 0 {
			p.refs(q.info, field.Type, n) // an embedded interface or a type set
			continue
		}
		id := field.Names[0]
		mstart := field.Pos()
		if field.Doc != nil {
			mstart = field.Doc.Pos()
		}
		m := p.add(q, id, spec.Name.Name+"."+id.Name, mstart, field.End())
		p.refs(q.info, field.Type, m)
		m.iface = true
		m.generic = spec.TypeParams != nil
		m.fn, _ = q.info.Defs[id].(*types.Func)
	}
}

// recvName returns the base type name of a receiver expression, and
// whether the receiver is generic.
func recvName(e ast.Expr) (name string, generic bool) {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e, generic = t.X, true
		case *ast.IndexListExpr:
			e, generic = t.X, true
		case *ast.Ident:
			return t.Name, generic
		default:
			return "", generic
		}
	}
}

// add records the declaration of id under name and returns its node.
// init functions and blank names are roots that nothing can name.
func (p *pass) add(q *pkg, id *ast.Ident, name string, start, end token.Pos) *node {
	if id.Name == "_" || name == "init" {
		key := fmt.Sprintf("%s.%s@%d", q.path, name, id.Pos())
		n := &node{}
		p.nodes[key] = n
		p.roots = append(p.roots, key)
		return n
	}
	key := q.path + "." + name
	n := p.nodes[key]
	if n == nil {
		n = &node{pkg: q.path}
		p.nodes[key] = n
	}
	p.keyAt[id.Pos()] = key
	for i, pattern := range p.allow {
		if matchKey(pattern, key) {
			p.roots = append(p.roots, key)
			p.allowHit[i] = true
		}
	}
	s, e := p.fset.Position(start), p.fset.Position(end)
	for _, f := range p.sites[key] {
		if f.line == s.Line && f.file == p.rel(s.Filename) {
			return n
		}
	}
	p.sites[key] = append(p.sites[key], finding{
		file:  p.rel(s.Filename),
		line:  s.Line,
		name:  q.bp.Name + "." + name,
		lines: e.Line - s.Line + 1,
	})
	return n
}

func (p *pass) rel(file string) string {
	if r, err := filepath.Rel(p.root, file); err == nil {
		return filepath.ToSlash(r)
	}
	return file
}

// matchKey reports whether an allowlist pattern covers key.
func matchKey(pattern, key string) bool {
	psplit, ksplit := strings.LastIndex(pattern, "/"), strings.LastIndex(key, "/")
	pdot := strings.Index(pattern[psplit+1:], ".") + psplit + 1
	kdot := strings.Index(key[ksplit+1:], ".") + ksplit + 1
	if pattern[:pdot] != key[:kdot] {
		return false
	}
	pnames, knames := strings.Split(pattern[pdot+1:], "."), strings.Split(key[kdot+1:], ".")
	if len(pnames) != len(knames) {
		return false
	}
	for i := range pnames {
		if ok, _ := path.Match(pnames[i], knames[i]); !ok {
			return false
		}
	}
	return true
}

// refs adds to n every declaration that the syntax x names.
func (p *pass) refs(info *types.Info, x ast.Node, n *node) {
	p.later = append(p.later, func() {
		p.uses(info, x, func(key string) { n.refs = append(n.refs, key) })
	})
}

// uses calls fn with the key of every module declaration that x names.
func (p *pass) uses(info *types.Info, x ast.Node, fn func(key string)) {
	if x == nil || x == (*ast.FieldList)(nil) {
		return
	}
	ast.Inspect(x, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if key, ok := p.keyAt[obj.Pos()]; ok {
					fn(key)
				}
			}
		}
		return true
	})
}

// testRefs roots every declaration of another package that q's tests
// name, and everything a client package names.
func (p *pass) testRefs(q *pkg) error {
	root := func(key string) {
		if q.client || p.nodes[key].pkg != q.path {
			p.roots = append(p.roots, key)
		}
	}
	if q.client {
		for _, f := range q.files {
			p.uses(q.info, f, root)
		}
	}
	if len(q.tests) > 0 {
		tp, info, err := p.check(q.path, append(append([]*ast.File(nil), q.files...), q.tests...), p.checkBase)
		if err != nil {
			return err
		}
		q.test = tp
		for _, f := range q.tests {
			p.uses(info, f, root)
		}
	}
	if len(q.xtests) == 0 {
		return nil
	}
	// As the go command does, the external test package sees q with
	// its in-package tests, and so does every module package it imports
	// that depends on q: those are checked again for it.
	over := map[string]*types.Package{q.path: q.base}
	if q.test != nil {
		over[q.path] = q.test
	}
	var imp func(string) (*types.Package, error)
	imp = func(path string) (*types.Package, error) {
		if tp, ok := over[path]; ok {
			return tp, nil
		}
		if !p.dependsOn(path, q.path) {
			return p.checkBase(path)
		}
		tp, _, err := p.check(path, p.pkgs[path].files, imp)
		over[path] = tp
		return tp, err
	}
	_, info, err := p.check(q.path+"_test", q.xtests, imp)
	if err != nil {
		return err
	}
	for _, f := range q.xtests {
		p.uses(info, f, root)
	}
	return nil
}

// dependsOn reports whether the package path imports target, directly
// or not.
func (p *pass) dependsOn(path, target string) bool {
	t := p.pkgs[target]
	if t.dependents == nil {
		t.dependents = map[string]bool{}
		var walk func(string) bool
		seen := map[string]bool{}
		walk = func(path string) bool {
			if done, ok := seen[path]; ok {
				return done
			}
			seen[path] = false
			for _, imp := range p.pkgs[path].bp.Imports {
				if _, ok := p.pkgs[imp]; ok && (imp == target || walk(imp)) {
					seen[path] = true
				}
			}
			return seen[path]
		}
		for path := range p.pkgs {
			t.dependents[path] = walk(path)
		}
	}
	return t.dependents[path]
}

// markStd flags each method through which its receiver satisfies an
// exported interface of a standard package the modules import, or error.
func (p *pass) markStd() {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, imp := range tp.Imports() {
			visit(imp)
		}
		if _, ok := p.pkgs[tp.Path()]; ok {
			return
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, q := range p.pkgs {
		if q.base != nil {
			visit(q.base)
		}
	}
	for _, q := range p.pkgs {
		if q.client || q.base == nil {
			continue
		}
		scope := q.base.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if n := p.nodes[q.path+"."+name+"."+it.Method(i).Name()]; n != nil {
						n.std = true
					}
				}
			}
		}
	}
}

// reach returns the set of keys reachable from the roots.
func (p *pass) reach() map[string]bool {
	reached := map[string]bool{}
	queue := append([]string(nil), p.roots...)
	for {
		for len(queue) > 0 {
			key := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if reached[key] {
				continue
			}
			reached[key] = true
			queue = append(queue, p.nodes[key].refs...)
		}
		// A method whose receiver is reached is reached through dynamic
		// dispatch when a reached interface method matches it.
		byName := map[string][]*node{}
		for key, n := range p.nodes {
			if n.iface && reached[key] && n.fn != nil {
				byName[n.fn.Name()] = append(byName[n.fn.Name()], n)
			}
		}
		for key, n := range p.nodes {
			if reached[key] || n.recv == "" || !reached[n.recv] || n.fn == nil {
				continue
			}
			match := n.std
			for _, im := range byName[n.fn.Name()] {
				match = match || n.generic || im.generic || sameSignature(n.fn, im.fn)
			}
			if match {
				queue = append(queue, key)
			}
		}
		if len(queue) == 0 {
			return reached
		}
	}
}

func sameSignature(a, b *types.Func) bool {
	sa, sb := a.Type().(*types.Signature), b.Type().(*types.Signature)
	return types.Identical(
		types.NewSignatureType(nil, nil, nil, sa.Params(), sa.Results(), sa.Variadic()),
		types.NewSignatureType(nil, nil, nil, sb.Params(), sb.Results(), sb.Variadic()))
}

// modulePath reads the module line of dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}
