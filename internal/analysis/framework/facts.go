// Facts: the cross-package channel between analyzer passes, mirroring
// go/analysis's ObjectFact machinery. An analyzer running on
// package P may export a fact about one of P's objects (a function, a
// package-level var, a struct field); when the same analyzer later runs on
// a package that imports P, it can import that fact back and act on it —
// that is how lockdiscipline knows a field of an imported struct is
// mutex-guarded, and how fsyncorder knows faultfs.WriteFileAtomic is a
// complete fsync+rename sink.
//
// Facts genuinely round-trip through bytes (encoding/gob), exactly as they
// would through files in a distributed go/analysis driver: the loader
// type-checks each module package from source but resolves its imports
// from compiler export data, so the types.Object for P.F seen by a
// dependent is NOT the object P's own pass saw. Identity therefore cannot
// be pointer-based; objects are keyed by a stable path — "o:<name>" for
// package-scope objects, "m:<Type>.<Method>" for methods, "f:<Type>.<Field>"
// for struct fields — scoped to the owning package's import path. After
// each per-package pass the analyzer's exported facts are serialized; a
// dependent pass decodes them on first import.
package framework

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// Fact is a datum one package's pass publishes for its dependents. Concrete
// fact types must be pointers to structs, must be gob-encodable, and must
// be listed in the owning Analyzer's FactTypes so they are registered with
// gob before the run.
type Fact interface {
	// AFact marks the type as a fact; it has no behavior.
	AFact()
}

// ObjectFactKey returns the stable cross-package key for obj, or "" when
// obj is not addressable by facts (locals, struct fields — use
// FieldFactKey for those, unnamed objects).
func ObjectFactKey(obj types.Object) string {
	if obj == nil || obj.Name() == "" || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // method on an unnamed receiver (anonymous interface)
			}
			return "m:" + named.Obj().Name() + "." + fn.Name()
		}
	}
	// Locals and parameters have a parent scope that is not the package
	// scope; facts on them would be meaningless to other packages.
	if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return "o:" + obj.Name()
}

// FieldFactKey returns the fact key for the named field of the named
// struct type. go/types gives struct-field Vars no back-pointer to their
// owner, so the owner is passed explicitly by both the exporting and the
// importing side (the importer recovers it from the selection's receiver).
func FieldFactKey(owner *types.Named, field string) string {
	if owner == nil || owner.Obj() == nil {
		return ""
	}
	return "f:" + owner.Obj().Name() + "." + field
}

// wireFact is the serialized form of one exported fact.
type wireFact struct {
	Key  string
	Fact Fact
}

// factBlob is what one (analyzer, package) pair serializes.
type factBlob struct {
	Facts []wireFact
}

// factDB holds every analyzer's serialized per-package facts for one Run.
type factDB struct {
	// blobs is the wire form: gob bytes per (analyzer, package path).
	blobs map[string][]byte
	// decoded caches blobs after their first import.
	decoded map[string]map[string][]Fact
}

func newFactDB() *factDB {
	return &factDB{blobs: map[string][]byte{}, decoded: map[string]map[string][]Fact{}}
}

func dbKey(analyzer, pkgPath string) string { return analyzer + "\x00" + pkgPath }

// seal serializes the facts a pass exported and files them under the
// analyzer/package pair. Keys are sorted so the encoding is deterministic.
func (db *factDB) seal(analyzer, pkgPath string, exported []wireFact) error {
	if len(exported) == 0 {
		return nil
	}
	sorted := make([]wireFact, len(exported))
	copy(sorted, exported)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	raw, err := EncodeFacts(sorted)
	if err != nil {
		return fmt.Errorf("encoding facts of %s: %w", pkgPath, err)
	}
	db.blobs[dbKey(analyzer, pkgPath)] = raw
	return nil
}

// lookup decodes (once) and returns the facts stored under key for the
// analyzer/package pair.
func (db *factDB) lookup(analyzer, pkgPath, key string) []Fact {
	k := dbKey(analyzer, pkgPath)
	byKey, ok := db.decoded[k]
	if !ok {
		byKey = map[string][]Fact{}
		if raw := db.blobs[k]; raw != nil {
			facts, err := DecodeFacts(raw)
			if err == nil {
				for _, wf := range facts {
					byKey[wf.Key] = append(byKey[wf.Key], wf.Fact)
				}
			}
		}
		db.decoded[k] = byKey
	}
	return byKey[key]
}

// EncodeFacts serializes fact entries to bytes; DecodeFacts reverses it.
// Both are exported for the round-trip tests — the Run driver itself seals
// and decodes through the same pair, so the tests exercise the real wire
// path.
func EncodeFacts(facts []wireFact) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(factBlob{Facts: facts}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeFacts parses bytes produced by EncodeFacts.
func DecodeFacts(raw []byte) ([]wireFact, error) {
	var blob factBlob
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&blob); err != nil {
		return nil, err
	}
	return blob.Facts, nil
}

// registerFactTypes tells gob about an analyzer's concrete fact types.
// gob.Register is idempotent for a stable name→type mapping, so repeated
// Runs are fine.
func registerFactTypes(a *Analyzer) {
	for _, f := range a.FactTypes {
		gob.Register(f)
	}
}

// assignFact copies src into dst (both pointers to the same concrete
// struct type). Returns false on a type mismatch.
func assignFact(dst, src Fact) bool {
	dv, sv := reflect.ValueOf(dst), reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer || dv.Type() != sv.Type() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}

// --- Pass fact API ---

// exportFact records a fact under key on the current package.
func (p *Pass) exportFact(key string, f Fact) {
	if key == "" || p.exported == nil {
		return
	}
	*p.exported = append(*p.exported, wireFact{Key: key, Fact: f})
}

// importFact resolves a fact by package path + key: pending exports of the
// current pass first (same-package queries), then the serialized store.
func (p *Pass) importFact(pkgPath, key string, f Fact) bool {
	if key == "" {
		return false
	}
	if p.Pkg != nil && pkgPath == p.Pkg.Path() && p.exported != nil {
		for _, wf := range *p.exported {
			if wf.Key == key && assignFact(f, wf.Fact) {
				return true
			}
		}
		return false
	}
	if p.facts == nil {
		return false
	}
	for _, stored := range p.facts.lookup(p.Analyzer.Name, pkgPath, key) {
		if assignFact(f, stored) {
			return true
		}
	}
	return false
}

// ExportObjectFact publishes a fact about a package-scope object or method
// of the current package. Facts on objects of other packages, locals, or
// struct fields (use ExportFieldFact) are silently dropped.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() == nil || p.Pkg == nil || obj.Pkg().Path() != p.Pkg.Path() {
		return
	}
	p.exportFact(ObjectFactKey(obj), f)
}

// ImportObjectFact loads the fact stored for obj (a package-scope object
// or method of any analyzed package) into f, reporting whether one was
// found.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.importFact(obj.Pkg().Path(), ObjectFactKey(obj), f)
}

// ExportFieldFact publishes a fact about a field of a named struct type
// declared in the current package.
func (p *Pass) ExportFieldFact(owner *types.Named, field string, f Fact) {
	if owner == nil || owner.Obj() == nil || owner.Obj().Pkg() == nil ||
		p.Pkg == nil || owner.Obj().Pkg().Path() != p.Pkg.Path() {
		return
	}
	p.exportFact(FieldFactKey(owner, field), f)
}

// ImportFieldFact loads the fact stored for ownerType's field (ownerType
// may be a pointer; it is unwrapped) into f.
func (p *Pass) ImportFieldFact(ownerType types.Type, field string, f Fact) bool {
	if ptr, ok := ownerType.(*types.Pointer); ok {
		ownerType = ptr.Elem()
	}
	named, ok := ownerType.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return p.importFact(named.Obj().Pkg().Path(), FieldFactKey(named, field), f)
}
