package secure_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ssmfp/internal/secure"
)

func TestRoleExtensionRoundTrip(t *testing.T) {
	for _, role := range []secure.Role{secure.RoleNode, secure.RoleOperator, secure.RoleObserver} {
		ext, err := secure.EncodeRoleExtension(role)
		if err != nil {
			t.Fatalf("encode %s: %v", role, err)
		}
		got, err := secure.ParseRoleExtension(ext.Value)
		if err != nil {
			t.Fatalf("parse %s: %v", role, err)
		}
		if got != role {
			t.Fatalf("round trip %s -> %s", role, got)
		}
	}
	if _, err := secure.EncodeRoleExtension(secure.RoleInvalid); err == nil {
		t.Fatal("encoding the invalid role must fail")
	}
	for name, der := range map[string][]byte{
		"empty":        {},
		"junk":         {0xff, 0x00, 0x01},
		"unknown role": {0x13, 0x04, 'r', 'o', 'o', 't'},
		"trailing":     {0x13, 0x04, 'n', 'o', 'd', 'e', 0x00},
	} {
		if _, err := secure.ParseRoleExtension(der); err == nil {
			t.Errorf("%s: parse accepted %x", name, der)
		}
	}
}

func TestIdentityAndVerifyRole(t *testing.T) {
	ca, err := secure.GenCA("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	pool := ca.Pool()

	node, err := ca.IssueNode(7)
	if err != nil {
		t.Fatal(err)
	}
	id, err := secure.VerifyRole(node.Leaf, pool)
	if err != nil {
		t.Fatalf("verify node cert: %v", err)
	}
	if id.Role != secure.RoleNode || id.Proc != 7 || id.Name != "node-7" {
		t.Fatalf("node identity = %+v", id)
	}

	op, err := ca.Issue("ops-console", secure.RoleOperator)
	if err != nil {
		t.Fatal(err)
	}
	id, err = secure.VerifyRole(op.Leaf, pool)
	if err != nil {
		t.Fatalf("verify operator cert: %v", err)
	}
	if id.Role != secure.RoleOperator || id.Proc != -1 {
		t.Fatalf("operator identity = %+v", id)
	}

	// A node-role cert whose CN breaks the node-<id> scheme is unusable;
	// issuance itself refuses to mint one.
	if _, err := ca.Issue("definitely-not-a-node", secure.RoleNode); err == nil {
		t.Fatal("issuing a node cert with a non-node CN must fail")
	}

	// No role extension: identity extraction fails.
	if norole, err := ca.IssueWith("node-3", secure.RoleNode, secure.IssueOptions{OmitRole: true}); err != nil {
		t.Fatal(err)
	} else if _, err := secure.IdentityOf(norole.Leaf); err == nil {
		t.Fatal("cert without the role extension must not yield an identity")
	}

	// A foreign trust domain never verifies.
	otherCA, err := secure.GenCA("other-ca")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := otherCA.IssueNode(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := secure.VerifyRole(foreign.Leaf, pool); err == nil {
		t.Fatal("foreign-CA cert must not verify")
	}

	// An expired cert fails chain verification.
	expired, err := ca.IssueWith("node-1", secure.RoleNode, secure.IssueOptions{
		NotBefore: time.Now().Add(-2 * time.Hour),
		NotAfter:  time.Now().Add(-time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := secure.VerifyRole(expired.Leaf, pool); err == nil {
		t.Fatal("expired cert must not verify")
	}
}

func TestCredentialFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ca, err := secure.GenCA("file-ca")
	if err != nil {
		t.Fatal(err)
	}
	caCert, caKey := filepath.Join(dir, "ca.pem"), filepath.Join(dir, "ca.key")
	if err := ca.WriteFiles(caCert, caKey); err != nil {
		t.Fatal(err)
	}

	cred, err := ca.IssueNode(2)
	if err != nil {
		t.Fatal(err)
	}
	certPath, keyPath := filepath.Join(dir, "node-2.pem"), filepath.Join(dir, "node-2.key")
	if err := cred.WriteFiles(certPath, keyPath); err != nil {
		t.Fatal(err)
	}

	loaded, err := secure.LoadCredential(certPath, keyPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ID != cred.ID {
		t.Fatalf("reloaded identity %+v != issued %+v", loaded.ID, cred.ID)
	}
	pool, err := secure.LoadPool(caCert)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := secure.VerifyRole(loaded.Leaf, pool); err != nil {
		t.Fatalf("reloaded credential fails verification: %v", err)
	}

	// The reloaded CA must still be able to issue verifiable credentials.
	ca2, err := secure.LoadCA(caCert, caKey)
	if err != nil {
		t.Fatal(err)
	}
	more, err := ca2.Issue("late-observer", secure.RoleObserver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := secure.VerifyRole(more.Leaf, pool); err != nil {
		t.Fatalf("cert from reloaded CA fails verification: %v", err)
	}
}

// TestProvision: a provisioned domain holds exactly the files it lists,
// and every credential in it verifies against its CA with the role its
// file name promises.
func TestProvision(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "certs")
	_, dom, err := secure.Provision(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range dom.Files() {
		names = append(names, filepath.Base(f))
	}
	want := []string{"ca.pem", "ca.key", "node-0.pem", "node-0.key", "node-1.pem", "node-1.key",
		"operator.pem", "operator.key", "observer.pem", "observer.key"}
	if !slices.Equal(names, want) {
		t.Fatalf("Files = %v, want %v", names, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != len(want) {
		t.Fatalf("%d files on disk, want %d (%v)", len(entries), len(want), err)
	}
	pool, err := secure.LoadPool(dom.CACert())
	if err != nil {
		t.Fatal(err)
	}
	for stem, role := range map[string]secure.Role{"node-1": secure.RoleNode,
		"operator": secure.RoleOperator, "observer": secure.RoleObserver} {
		cred, err := secure.LoadCredential(filepath.Join(dir, stem+".pem"), filepath.Join(dir, stem+".key"))
		if err != nil {
			t.Fatal(err)
		}
		if id, err := secure.VerifyRole(cred.Leaf, pool); err != nil || id.Role != role {
			t.Fatalf("%s: identity %+v, %v; want role %v", stem, id, err, role)
		}
	}
	if got := dom.NodeCert(1); got != filepath.Join(dir, "node-1.pem") || dom.NodeKey(1) != filepath.Join(dir, "node-1.key") {
		t.Fatalf("node 1 pair at %s", got)
	}
}
