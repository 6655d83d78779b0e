"""The slow reference scorer: `prefill`/`extend` with one
`next_token_distribution` call per context and no K/V cache.

Table-driven test models mix it in to become decodable, and
`PerContextModel` wraps a real model so that its cached scorer can be
checked against one forward per context.
"""

import numpy as np


class PerContextScorer:
    """The scorer protocol of `SequenceModel` for any object with
    `next_token_distribution`; the state is the list of node contexts."""

    def prefill(self, prompt):
        contexts = [tuple(int(t) for t in prompt)]
        return contexts, self.next_token_distribution(contexts[0])

    def extend(self, contexts, parent_ids, tokens):
        ids, dists = [], []
        for parent, tok in zip(parent_ids, tokens):
            contexts.append(contexts[parent] + (int(tok),))
            ids.append(len(contexts) - 1)
            dists.append(self.next_token_distribution(contexts[-1]))
        return np.array(ids), np.array(dists)


class PerContextModel(PerContextScorer):
    def __init__(self, model):
        self.model = model

    def next_token_distribution(self, context):
        return self.model.next_token_distribution(context)
