"""Exact highest-weight representations on pattern bases, with verification
suites for the defining relations and the q-bracket identity corpus.

Every layer loads with the package: scalars, patterns, reports, the
identity corpus, the generator action and the relation suites.
"""

from .qnum import QValue, RadicalSum, qbracket, radical_of
from .patterns import (CPattern, ModuleParams, Signature, enumerate_basis,
                       highest_weight_pattern)
from .report import CheckReport
from .identities import (Assignment, IdentityId, PoleError, evaluate_identity,
                         fuzz_identity)
from .action import (GeneratorLabel, PatternVector, apply_generator,
                     apply_to_vector, apply_word)
from .relations import (check_boundary_f, check_cartan, check_charge,
                        check_highest_weight, check_restrictedness, check_serre)

__version__ = "0.1.0"
