"""Possible and certain independence of attribute sets in relational data
containing nulls: data model, model checking, implication, and witness
constructions."""

from .atoms import (
    Atom,
    CERTAIN,
    PLAIN,
    POSSIBLE,
    attributes_of,
    ind,
    ind_set,
    is_disjoint,
    is_pia_star,
    parse_atom,
    parse_constraints,
    render_atom,
)
from .constructions import (
    CnfFormula,
    cnf_to_relation,
    constancy_counterexample,
    exchange_failure_groundings,
    exchange_failure_relation,
    parity_relation,
    pia_separating_family,
    sat_via_pia,
)
from .errors import (
    FragmentError,
    IndepkitError,
    OracleInfeasibleError,
    ParseError,
    SaturationLimitError,
    SchemaError,
    SearchBoundsError,
)
from .implication import (
    ImplicationReport,
    SearchBounds,
    implies,
    implies_ia,
    search_counterexample,
)
from .model_check import (
    CheckReport,
    check_atom,
    check_cia_fast,
    check_ia,
    check_pia,
)
from .relation import (
    NULL,
    Relation,
    Schema,
    domains_from_json,
    domains_to_json,
    infer_domains,
    read_relation,
    relation_from_csv,
    relation_to_csv,
)
from .rules import (
    Derivation,
    DerivationStep,
    RuleSystem,
    SYSTEM_DISJOINT_MIXED,
    SYSTEM_FULL,
    SYSTEM_I,
    SYSTEM_I_C,
    SYSTEM_I_P,
    SYSTEM_J_PC,
    closure,
    derivation_to_json_list,
    derives,
    render_derivation_text,
    system_by_name,
    validate_derivation,
)

__version__ = "0.1.0"
