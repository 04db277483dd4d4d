#!/usr/bin/env bash
# The README command-line examples and the CLI's refusal contract, run with an
# installed `diracpl`:
#
#     tools/readme_examples.sh OUT_DIR
#
# Each command writes under OUT_DIR.  PYTHONWARNINGS=error turns a leaked NumPy
# warning into a failure.  The N = 160 rep-b solve takes representation b's
# coefficient product to a long horizon, the N = 176 rep-a and N = 177 rep-b
# solves sit at the ceilings of the raw-polynomial forms the Laguerre-function
# kernel replaced (|g| up to 1.1e84 in rep a), and the N = 400 solves of reps
# a, b and c and the N = 400 rep-a verify pass where those forms stopped.  The
# eps = -1 verify runs the energy reflection (swap_energy) path; the kappa = -1
# verify the representation-c branch of the batched stencil, and with
# --alpha 1.2 a user alpha, which representation c bounds; the theta = 5.5
# verify a recursion angle where cosh^2(theta) ~ 1.5e4; the rho = 553 and
# rho = 0.0146 verifies rep-b coefficients that change by only e^{-|theta|},
# |theta| <= 0.03, per step; the mu = 1.0125 verify a basis with nu = 400, whose
# Gamma(n+1+nu) leaves double range while the running product R_n of the
# coefficient scaling does not; the --config verify reads a file written with
# the alias keys lambda and epsilon.  Every one of these exits 0.  The last
# thirteen commands must be refused with exit 2 and one stderr line: near mu = 1
# (beta = -0.008, nu = 250) the series norm underflows to 0 in solve, verify
# and convergence; with a user omega = 1e-300 (rep a, beta = 0.1) the radial
# grid leaves double range in solve and verify; one past the rep-a ceiling,
# N = 639, the coefficients leave double range at f_640; one past the rep-c
# ceiling, N = 715, the order-723 rule leaves double range; with a user
# omega = 1e-75 (rep b) or 1e-60 (rep a) rho^2 leaves double range in solve
# and verify; at omega = 1e-200 (rep a, beta = 0.1) every operator element
# underflows in verify; and at A = 1e10, mu = 0.999 the special case's tuned
# omega leaves double range.
set -euo pipefail
out=${1:?usage: tools/readme_examples.sh OUT_DIR}
export PYTHONWARNINGS=error

diracpl solve --A 3 --mu -2 --kappa 1 --omega 1 --N 20 --out "$out/readme-solve"
diracpl solve --A 1 --mu -1.5 --kappa -3 --N 160 --out "$out/solve-rep-b-160"
diracpl solve --A 3 --mu -2 --kappa 1 --omega 1 --N 176 --out "$out/solve-rep-a-ceiling"
diracpl solve --A 1 --mu -1.5 --kappa -3 --N 177 --out "$out/solve-rep-b-ceiling"
diracpl solve --A 3 --mu -2 --kappa 1 --omega 1 --N 400 --out "$out/solve-rep-a-400"
diracpl solve --A 1 --mu -1.5 --kappa -3 --N 400 --out "$out/solve-rep-b-400"
diracpl solve --A 1 --mu 2 --kappa -1 --N 400 --out "$out/solve-rep-c-400"
diracpl verify --A 3 --mu -2 --kappa 1 --omega 1 --N 400 --out "$out/verify-rep-a-400"
diracpl verify --A 3 --mu -2 --kappa 1 --omega 1 --out "$out/readme-verify"
diracpl verify --A 2 --mu 0.5 --kappa -1 --epsilon -1 --out "$out/verify-eps-minus"
diracpl verify --A 1 --mu 2 --kappa -1 --out "$out/verify-rep-c"
diracpl verify --A 1 --mu 2 --kappa -1 --alpha 1.2 --out "$out/verify-rep-c-alpha"
diracpl verify --A -1.7164122766073617 --mu -3.8641876132271795 --kappa -5 --omega 0.9324215474167732 --out "$out/verify-large-theta"
diracpl verify --A 14.202967632234262 --mu -0.0003961086828168446 --kappa -6 --omega 0.05136804371362816 --out "$out/verify-rho-553"
diracpl verify --A 0.682400674505875 --mu -1.8283871637591878 --kappa -2 --N 80 --omega 3.447820115026237 --out "$out/verify-rho-0.0146"
diracpl verify --A=-0.02824516806695166 --mu=1.012511070587796 --kappa=-3 --N=5 --out "$out/verify-nu-400"
diracpl convergence --A 1 --mu -1.5 --kappa -3 --omega 0.5253 --out "$out/readme-convergence"
diracpl special-case --A 2 --mu 0.5 --kappa -1 --out "$out/readme-special-case"
diracpl --help
printf 'A = 1\nmu = -1.5\nkappa = -3\nlambda = 1\nepsilon = 1\n' > "$out/aliases.cfg"
diracpl verify --config "$out/aliases.cfg" --out "$out/verify-config"

# refused NAME ARGS...: `diracpl ARGS` exits 2 with exactly one stderr line
refused() {
    local name=$1 code=0
    shift
    diracpl "$@" --out "$out/$name" 2> "$out/$name.err" || code=$?
    if [ "$code" -ne 2 ] || [ "$(wc -l < "$out/$name.err")" -ne 1 ]; then
        echo "expected exit 2 and one stderr line from diracpl $*, got exit $code:" >&2
        cat "$out/$name.err" >&2
        exit 1
    fi
}

for mode in solve verify convergence; do
    refused "$mode-norm-underflow" "$mode" --A 0.05903017090438638 --mu 1.0080326275811557 --kappa -1 --N 20
done
for mode in solve verify; do
    refused "$mode-grid-overflow" "$mode" --A 1 --mu 0.9 --kappa 1 --omega 1e-300 --N 20
done
refused solve-rep-a-639 solve --A 3 --mu -2 --kappa 1 --omega 1 --N 639
refused solve-rep-c-715 solve --A 1 --mu 2 --kappa -1 --N 715
for mode in solve verify; do
    refused "$mode-rho-sq-rep-b" "$mode" --A 1 --mu -1.5 --kappa -3 --omega 1e-75 --N 20
    refused "$mode-rho-sq-rep-a" "$mode" --A 3 --mu -2 --kappa 1 --omega 1e-60 --N 20
done
refused verify-operator-underflow verify --A 1 --mu 0.9 --kappa 1 --omega 1e-200 --N 20
refused special-case-omega-overflow special-case --A 1e10 --mu 0.999 --kappa -1
