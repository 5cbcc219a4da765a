package schemes

import (
	"reflect"
	"strings"
	"testing"

	"flexpass/internal/transport"
)

// TestCheckOptions: a known key with an accepted value passes, whichever
// scheme reads it; a misspelt key fails naming the known keys, and a
// value its key does not read fails naming the accepted ones.
func TestCheckOptions(t *testing.T) {
	for _, c := range []struct {
		opts map[string]string
		err  string // what the error must say; "" for none
	}{
		{nil, ""},
		{map[string]string{"reactive": "reno"}, ""},
		{map[string]string{"reactive": "dctcp", "disable_proretx": "1", "pre_credit_only": "false"}, ""},
		{map[string]string{"reactiv": "reno"}, `unknown scheme option "reactiv" (known: disable_proretx, pre_credit_only, reactive)`},
		{map[string]string{"reactive": "cubic"}, `reactive="cubic": want one of dctcp, reno`},
		{map[string]string{"disable_proretx": "flase"}, `disable_proretx="flase": want one of 1, true, yes, 0, false, no`},
		{map[string]string{"pre_credit_only": ""}, `pre_credit_only="": want one of`},
	} {
		err := CheckOptions(c.opts)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v: %v", c.opts, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v: error %v, want one saying %s", c.opts, err, c.err)
		}
	}
}

// TestOptionsAreRead keeps the option table honest: each key it lists
// changes the config flexCfg builds for one of its accepted values.
func TestOptionsAreRead(t *testing.T) {
	plain := flexCfg(&transport.SchemeEnv{})
	if !reflect.DeepEqual(plain, flexCfg(&transport.SchemeEnv{})) {
		t.Fatal("two option-less FlexPass configs differ")
	}
	for key, accepted := range options {
		read := false
		for _, v := range accepted {
			read = read || !reflect.DeepEqual(plain, flexCfg(&transport.SchemeEnv{Options: map[string]string{key: v}}))
		}
		if !read {
			t.Errorf("option %q: no accepted value changes the FlexPass config", key)
		}
	}
}
