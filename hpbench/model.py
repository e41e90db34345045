"""Persistent classes and the hyper-program library the workloads share.

Every class here is registered on the registry the benchmark creates
(:func:`make_registry`), never on a module-level one.  The library
templates cover the four link kinds the paper's hyper-programs mix:
object, static method, field location and primitive value.  Each
template knows how to predict the effect of pressing Go on one of its
programs, so every press is checked against an expectation computed
before the press ran.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro import ClassRegistry, HyperLinkHP, HyperProgram, for_class


class Person:
    name: str
    spouse: object

    def __init__(self, name):
        self.name = name
        self.spouse = None

    @staticmethod
    def marry(a, b):
        a.spouse = b
        b.spouse = a


class Account:
    owner: object
    balance: int

    def __init__(self, owner, balance):
        self.owner = owner
        self.balance = balance

    @staticmethod
    def deposit(account, amount):
        account.balance += amount
        return account.balance

    @staticmethod
    def transfer(src, dst, amount):
        src.balance -= amount
        dst.balance += amount
        return (src.balance, dst.balance)


class Item:
    """A commit-churn graph node."""

    key: int
    val: int
    peer: object
    tags: list

    def __init__(self, key, val, tags):
        self.key = key
        self.val = val
        self.peer = None
        self.tags = tags


class Node:
    """One link of a cold-reopen chain (or a fan-out leaf)."""

    val: int
    nxt: object

    def __init__(self, val, nxt=None):
        self.val = val
        self.nxt = nxt


class Holder:
    """A cold-reopen data root: one deep chain plus one wide fan-out."""

    name: str
    chain: object
    fan: list

    def __init__(self, name, chain, fan):
        self.name = name
        self.chain = chain
        self.fan = fan


def make_registry() -> ClassRegistry:
    registry = ClassRegistry()
    for cls in (Person, Account, Item, Node, Holder):
        registry.register(cls)
    return registry


# ---------------------------------------------------------------------------
# Hyper-program templates
# ---------------------------------------------------------------------------

def _text(class_name: str, body: str) -> str:
    return (f"class {class_name}:\n"
            "    @staticmethod\n"
            "    def main(args):\n"
            f"{body}")


def _method(cls: type, name: str, pos: int) -> HyperLinkHP:
    return HyperLinkHP.to_static_method(for_class(cls).get_method(name),
                                        f"{cls.__name__}.{name}", pos)


#: A check takes ``run_main``'s result and says whether the press had
#: the effect the template predicted.
Check = Callable[[Any], bool]


def marry_program(class_name: str, a: Person, b: Person
                  ) -> tuple[HyperProgram, Check]:
    """``[Person.marry]([a], [b])``: static method + two objects."""
    body = "        (, )\n        return 0\n"
    text = _text(class_name, body)
    call = text.index("(, )")
    program = HyperProgram(text, class_name=class_name)
    program.add_link(_method(Person, "marry", call))
    program.add_link(HyperLinkHP.to_object(a, a.name, call + 1))
    program.add_link(HyperLinkHP.to_object(b, b.name, call + 3))
    a.spouse = b.spouse = None
    return program, lambda result: (result == 0 and a.spouse is b
                                    and b.spouse is a)


def deposit_program(class_name: str, account: Account, amount: int
                    ) -> tuple[HyperProgram, Check]:
    """``return [Account.deposit]([account], [amount])``."""
    text = _text(class_name, "        return (, )\n")
    call = text.index("(, )")
    program = HyperProgram(text, class_name=class_name)
    program.add_link(_method(Account, "deposit", call))
    program.add_link(HyperLinkHP.to_object(account, "account", call + 1))
    program.add_link(HyperLinkHP.to_primitive(amount, str(amount), call + 3))
    expected = account.balance + amount
    return program, lambda result: (result == expected
                                    and account.balance == expected)


def read_program(class_name: str, account: Account, bonus: int
                 ) -> tuple[HyperProgram, Check]:
    """``return [account.balance] + [bonus]``: a field *location* link,
    read when the program runs (delayed binding), plus a primitive."""
    text = _text(class_name, "        return  + \n")
    at = text.index("return ") + len("return ")
    program = HyperProgram(text, class_name=class_name)
    program.add_link(HyperLinkHP.to_field_location(account, "balance",
                                                   "balance", at))
    program.add_link(HyperLinkHP.to_primitive(bonus, str(bonus), at + 3))
    expected = account.balance + bonus
    return program, lambda result: result == expected


def transfer_program(class_name: str, src: Account, dst: Account,
                     amount: int) -> tuple[HyperProgram, Check]:
    """``return [Account.transfer]([src], [dst], [amount])``."""
    text = _text(class_name, "        return (, , )\n")
    call = text.index("(, , )")
    program = HyperProgram(text, class_name=class_name)
    program.add_link(_method(Account, "transfer", call))
    program.add_link(HyperLinkHP.to_object(src, "src", call + 1))
    program.add_link(HyperLinkHP.to_object(dst, "dst", call + 3))
    program.add_link(HyperLinkHP.to_primitive(amount, str(amount), call + 5))
    expected = (src.balance - amount, dst.balance + amount)
    return program, lambda result: result == expected


def probe_program(class_name: str, node: Node, bonus: int) -> HyperProgram:
    """``return ([node], [node.val] + [bonus])``: the cold-reopen probe,
    whose object and location links point into a faulted subgraph.  Its
    check runs after a reopen, against values recorded at set-up."""
    text = _text(class_name, "        return (,  + )\n")
    at = text.index("(,  + )")
    program = HyperProgram(text, class_name=class_name)
    program.add_link(HyperLinkHP.to_object(node, "node", at + 1))
    program.add_link(HyperLinkHP.to_field_location(node, "val", "val",
                                                   at + 3))
    program.add_link(HyperLinkHP.to_primitive(bonus, str(bonus), at + 6))
    return program


def library_program(index: int, rng: random.Random, people: list,
                    accounts: list) -> tuple[HyperProgram, Check]:
    """Library slot ``index`` built from a seeded draw of targets and
    primitives; the slot's template is fixed by its index, so an edited
    copy keeps the slot's shape and changes only what it links to."""
    class_name = f"HP{index}"
    template = index % 4
    if template == 0:
        a, b = rng.sample(people, 2)
        return marry_program(class_name, a, b)
    if template == 1:
        return deposit_program(class_name, rng.choice(accounts),
                               rng.randint(1, 100))
    if template == 2:
        return read_program(class_name, rng.choice(accounts),
                            rng.randint(1, 100))
    src, dst = rng.sample(accounts, 2)
    return transfer_program(class_name, src, dst, rng.randint(1, 100))


def make_population(rng: random.Random, people_count: int,
                    account_count: int) -> tuple[list, list]:
    people = [Person(f"p{i}") for i in range(people_count)]
    accounts = [Account(rng.choice(people), rng.randint(0, 10_000))
                for _ in range(account_count)]
    return people, accounts
