"""Finite projective spaces over small fields, with partial collineation
extension, admissible-family machinery, prime-set growth recovery, and a
genus-zero function field demonstration pipeline.

Everything is index-level.  A field element is an index into the tables of
a GF, and a polynomial is a coefficient row of them (collinext.gf).
Points and lines are indices into a ProjSpace's tables, and a collineation
is a point map and a line map as index arrays, decoded to a semilinear map
by the fundamental theorem of projective geometry."""

__version__ = "0.1.0"

from .gf import GF, GFError, make_field
from .projgeom import (GeomError, ProjSpace, AxiomReport, noncollinear_triples,
                       certify_triples, check_axioms, desargues_admissible,
                       desargues_sweep, gaussian_binomial)
from .semilinear import (SemilinearError, SemilinearIso,
                         Collineation, random_semilinear, equal_up_to_scalar,
                         decode_ftpg)
from .ample import (AmpleError, AmpleFamily, AmpleReport, lines_meeting,
                    is_ample, is_mn_admissible, is_pgl2_stable)
from .extend import (ExtendError, PartialCollineation, ValidationReport,
                     validate_partial, ExtensionResult, extend, restrict,
                     random_ample_instance, brute_force_extensions)
from .primesets import (PrimeSetError, PrimeSet, SigmaFactorization,
                        sigma_part, FrobGrowth, w_sequence, recover_M0_and_p,
                        gl_order, construct_remark28, natural_density_estimate,
                        factorize, is_prime_u64, integer_nth_root, prime_sieve)
from .funcfield import (FuncFieldError, ClosedPointP1, DivisorP1, RRSpace,
                        rr_basis, UnitSubset, unit_subset, FFCertificate,
                        ample_certificate, Scramble, scramble, RingIsoReport,
                        recover_ring_iso, demo_instance, run_demo)
