package secure

import (
	"os"
	"path/filepath"

	"ssmfp/internal/graph"
)

// Domain is the on-disk layout of one provisioned trust domain under Dir:
// the CA pair, one node credential per processor 0..N-1, and the two
// human-role credentials (operator mutates the admin plane, observer only
// reads). ssmfp-node -gen-certs writes one somewhere durable; the spawn
// judge writes one into its fleet directory and hands each child its own
// node pair.
type Domain struct {
	Dir string
	N   int
}

// CACert is the CA certificate every member verifies its peers against.
func (d Domain) CACert() string { return d.file("ca", ".pem") }

// NodeCert is processor p's certificate.
func (d Domain) NodeCert(p graph.ProcessID) string { return d.file(NodeName(p), ".pem") }

// NodeKey is the private key for NodeCert(p).
func (d Domain) NodeKey(p graph.ProcessID) string { return d.file(NodeName(p), ".key") }

func (d Domain) file(stem, ext string) string { return filepath.Join(d.Dir, stem+ext) }

// member is one credential pair of a domain below its CA: its file
// stem, and the name and role its certificate carries.
type member struct {
	stem, name string
	role       Role
}

func (d Domain) members() []member {
	out := make([]member, 0, d.N+2)
	for i := 0; i < d.N; i++ {
		name := NodeName(graph.ProcessID(i))
		out = append(out, member{name, name, RoleNode})
	}
	for _, role := range []Role{RoleOperator, RoleObserver} {
		out = append(out, member{role.String(), "ssmfp-" + role.String(), role})
	}
	return out
}

// Files lists every file of the domain as cert/key pairs, the CA's first.
func (d Domain) Files() []string {
	files := []string{d.CACert(), d.file("ca", ".key")}
	for _, m := range d.members() {
		files = append(files, d.file(m.stem, ".pem"), d.file(m.stem, ".key"))
	}
	return files
}

// Provision mints a fresh CA and every credential of an n-node domain
// into dir. It returns the live CA too: a judge issues further
// credentials from it (its own operator, a rogue's certificates).
func Provision(dir string, n int) (*CA, Domain, error) {
	d := Domain{Dir: dir, N: n}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, d, err
	}
	ca, err := GenCA("ssmfp-cluster-ca")
	if err != nil {
		return nil, d, err
	}
	if err := ca.WriteFiles(d.CACert(), d.file("ca", ".key")); err != nil {
		return nil, d, err
	}
	for _, m := range d.members() {
		cred, err := ca.Issue(m.name, m.role)
		if err == nil {
			err = cred.WriteFiles(d.file(m.stem, ".pem"), d.file(m.stem, ".key"))
		}
		if err != nil {
			return nil, d, err
		}
	}
	return ca, d, nil
}
