"""Classification and local-global gluing of compactly generated t-structures
over concrete finite commutative rings, at desk scale.

The layers, bottom to top:

- :mod:`spectral_glue.poset`, :mod:`spectral_glue.thomason` — finite spectral
  posets, Thomason (up-)sets and decreasing filtrations;
- :mod:`spectral_glue.gluing`, :mod:`spectral_glue.integers` — the
  compatibility condition and the glue/localize bijections, and Spec(Z) as
  the finite star poset of the primes that Z data names, with the wire forms
  of Z levels, families and witnesses;
- :mod:`spectral_glue.rings`, :mod:`spectral_glue.modules`,
  :mod:`spectral_glue.homalg` — concrete finite rings, enumerable modules,
  bounded complexes, Koszul complexes and derived Hom;
- :mod:`spectral_glue.tstructures`, :mod:`spectral_glue.torsion_cosilting` —
  aisle/coaisle membership, degeneracy classification, torsion pairs and
  cosilting modules;
- :mod:`spectral_glue.catalog`, :mod:`spectral_glue.sweeps` — exhaustive
  corpora and the property sweeps behind the ``fuzz`` command;
- :mod:`spectral_glue.cli` — the command-line front door.
"""

from .errors import (
    FiltrationOrderError,
    IncompatibleFamilyError,
    InvalidInputError,
    SpectralGlueError,
    UnsupportedRingError,
)
from .gluing import (
    LocalFamily,
    check_lemma_equiv,
    glue_filtrations,
    glue_sets,
    localize_filtrations,
    localize_sets,
)
from .homalg import (
    BoundedComplex,
    FreeTerm,
    cohomology,
    derived_hom,
    koszul,
    localize_complex,
    shift,
    stalk_complex,
    support_of_cohomology,
)
from .modules import FiniteModule, direct_sum, free_module, zero_module
from .poset import SpectralPoset
from .rings import (
    FiniteRing,
    Ideal,
    IntegerRing,
    PolyQuot,
    ProductRing,
    ZMod,
    cyclic_module,
    indecomposable_injectives,
    ring_from_json,
    spec,
    support,
    v_of_ideal,
)
from .thomason import (
    ThomasonFiltration,
    ThomasonSet,
    is_constant,
    is_nondegenerate,
    make_filtration,
)
from .torsion_cosilting import (
    CosiltingModule,
    cosilting_equivalent,
    cosilting_thomason_of_module,
    glue_cosilting,
    components_of_cosilting,
    is_cosilting,
    thomason_of_torsion_class,
    torsion_submodule,
    two_term_filtration,
)
from .tstructures import (
    aisle_membership,
    classify_degeneracy,
    coaisle_membership,
    local_tstructures,
)

__version__ = "0.1.0"
