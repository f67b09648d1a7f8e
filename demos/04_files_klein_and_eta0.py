"""Group files, the Klein operator, and the undeformed closed form.

Groups round-trip through JSON files with bit-exact cyclotomic literals.
When -1 belongs to the group it acts as a Klein operator K: multiplying by
K turns supertraces into traces, so both spaces have the same dimension.
At eta = 0 the algebra is the plain skew product and every trace value has
a closed form: a Gaussian generating function in the symmetric form
w~ = omega (kappa + g)/(kappa - g) on the classes without eigenvalue kappa.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from sra import (
    Algebra,
    cyclic_sp2,
    doubled_coxeter,
    eta0_form,
    eta0_trace,
    group_to_dict,
    literal,
    load_group,
    solve_glc,
    symmetrized_monomial,
)

print("== group files ==")
b2 = doubled_coxeter("B", 2)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "b2.json"
    path.write_text(json.dumps(group_to_dict(b2), indent=2, sort_keys=True))
    reloaded = load_group(str(path))
    print(f"saved and reloaded {b2.name}: {len(reloaded)} elements, "
          f"classes match: {reloaded.classes == b2.classes}")

print("\n== the Klein operator ==")
for group in (b2, cyclic_sp2(2), doubled_coxeter("A", 3)):
    k_key = group.klein()
    t_count, s_count = group.kappa_counts()
    status = "present" if k_key is not None else "absent"
    print(f"  {group.name}: -1 {status}; T = {t_count}, S = {s_count}"
          + ("  (equal, as the Klein operator forces)" if k_key is not None else ""))

print("\n== eta = 0 closed form on cyclic_sp2(4) ==")
z4 = Algebra(cyclic_sp2(4))
group = z4.group
gen = group.generator_keys[0]
tilde = eta0_form(group, gen, +1)
print("  w~ for g = diag(z, z^3), kappa = +1: "
      f"[[{literal(tilde[0, 0])}, {literal(tilde[0, 1])}], "
      f"[{literal(tilde[1, 0])}, {literal(tilde[1, 1])}]]  (symmetric)")

fn = solve_glc(z4, +1)
pi = fn.free_classes.index(group.class_of[gen])
zero_pt = [Fraction(0)] * group.n_eta
for exp in ((1, 1), (2, 2), (2, 0)):
    sym = symmetrized_monomial(z4, exp)
    val = fn.evaluate(sym * z4.group_element(gen))
    at0 = val.coeffs.get(pi)
    got = literal(at0.evaluate(zero_pt)) if at0 is not None else "0"
    oracle = literal(eta0_trace(group, exp, gen, +1))
    print(f"  tr(sym a^{exp} g) at eta=0: evaluator {got}, closed form {oracle}")
