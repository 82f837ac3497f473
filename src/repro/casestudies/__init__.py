"""The evaluation case studies: all 18 Table-1 rows + negative controls.

``ALL_CASES`` is the 29-case catalogue the CLI sweep verifies; the three
fork/join case studies (``THREADED_CASES``) are kept apart from it but
are found by :func:`case_by_name` like every other case."""

from .base import CaseStudy, PaperRow, make_instance_groups, make_instances
from .counters import (
    count_sick_days,
    count_vaccinated,
    figure1,
    figure1_commuting,
    figure2,
    sequential_tally,
)
from .insecure import (
    count_channel,
    figure1_abstraction_leak,
    figure1_leaky,
    map_high_key,
    map_value_leak,
    unique_guard_split,
)
from .lists import debt_sum, email_metadata, mean_salary, patient_statistic
from .queues import one_producer_one_consumer, pipeline, two_producers_two_consumers
from .valuedep import (
    value_dependent,
    value_dependent_leak,
    value_dependent_public_secret,
)
from .threaded import (
    THREADED_CASES,
    figure2_forkjoin,
    figure3_forkjoin,
    forkjoin_high_key,
)
from .sets_maps import (
    count_purchases,
    figure3,
    most_valuable_purchase,
    sales_by_region,
    salary_histogram,
    sick_employee_names,
    website_visitor_ips,
)
from .generated import (
    GENERATED_CASES,
    GENERATED_FAMILIES,
    rate_limiter,
    salary_analytics,
    session_store,
)

#: The 18 rows of Table 1, in the paper's order.
TABLE1_CASES: tuple[CaseStudy, ...] = (
    count_vaccinated,
    figure2,
    count_sick_days,
    figure1,
    mean_salary,
    email_metadata,
    patient_statistic,
    debt_sum,
    sick_employee_names,
    website_visitor_ips,
    figure3,
    sales_by_region,
    salary_histogram,
    count_purchases,
    most_valuable_purchase,
    one_producer_one_consumer,
    pipeline,
    two_producers_two_consumers,
)

#: Secure programs beyond Table 1 (used by benchmarks and tests).
EXTRA_SECURE_CASES: tuple[CaseStudy, ...] = (
    figure1_commuting,
    value_dependent,
    sequential_tally,
)

#: Negative controls that must be rejected.
INSECURE_CASES: tuple[CaseStudy, ...] = (
    figure1_leaky,
    figure1_abstraction_leak,
    map_value_leak,
    map_high_key,
    unique_guard_split,
    count_channel,
    value_dependent_leak,
    value_dependent_public_secret,
)

ALL_CASES: tuple[CaseStudy, ...] = TABLE1_CASES + EXTRA_SECURE_CASES + INSECURE_CASES


def case_by_name(name: str) -> CaseStudy:
    for case in ALL_CASES + THREADED_CASES:
        if case.name == name:
            return case
    raise KeyError(f"no case study named {name!r}")


__all__ = [
    "ALL_CASES",
    "CaseStudy",
    "EXTRA_SECURE_CASES",
    "GENERATED_CASES",
    "GENERATED_FAMILIES",
    "INSECURE_CASES",
    "PaperRow",
    "TABLE1_CASES",
    "THREADED_CASES",
    "case_by_name",
    "figure2_forkjoin",
    "figure3_forkjoin",
    "forkjoin_high_key",
    "make_instance_groups",
    "make_instances",
]
