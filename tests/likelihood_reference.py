"""Full two-hypothesis likelihoods: the slow oracle for the gap-only evidence.

The library scores a tally by ``gap * ln(kappa)`` alone. These compute the
same log Bayes factor from the complete log-likelihood of each hypothesis,
so tests can check the closed form against an independent derivation.
"""

import math

from ttpo.consensus import AnswerModel, VoteTally, top_two


def log_likelihood(tally: VoteTally, hypothesis: int, model: AnswerModel) -> float:
    """Log-probability of the tally under "``hypothesis`` is the true answer".

    Equals ``v * ln(p0) + (total - v) * ln(wrong_mass)`` with ``v`` the vote
    count of the hypothesis. Stays in log space throughout.
    """
    if tally.m != model.m:
        raise ValueError(f"tally covers {tally.m} answers but model expects {model.m}")
    if not 0 <= hypothesis < model.m:
        raise ValueError(f"hypothesis {hypothesis} out of range for m={model.m}")
    v = tally.count(hypothesis)
    return v * math.log(model.p0) + (tally.total - v) * math.log(model.wrong_mass)


def log_bayes_factor_full(tally: VoteTally, model: AnswerModel) -> float:
    """Log evidence ratio of leader over runner-up from the two log-likelihoods.

    Algebraically identical to ``log_bayes_factor_closed_form`` in the gap.
    """
    pair = top_two(tally)
    return log_likelihood(tally, pair.leader, model) - log_likelihood(tally, pair.runner_up, model)
